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
//! The paper treats the index as a build-once artifact with §5.2.1's
//! dynamic labeling for incremental inserts; this module makes those
//! inserts safe *while serving*. The scheme is epoch-based multi-
//! versioning at two levels:
//!
//! * **Catalog level** — [`EngineSnapshot`] freezes everything a query
//!   needs (symbol table, RP/EP index handles, the value index) at
//!   one published epoch. Snapshots are immutable
//!   and cheap to share (`Arc`); queries against one snapshot are
//!   bit-identical no matter what the writer does concurrently.
//! * **Page level** — each snapshot holds a [`prix_storage::EpochPin`].
//!   While pinned, the buffer pool serves any page the writer has since
//!   dirtied from its captured pre-image (see
//!   `BufferPool::begin_ingest`), so the frozen index handles read the
//!   exact bytes of their epoch.
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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prix_storage::{EpochPin, IoScope, IoSnapshot, PinGuard};
use prix_xml::{Collection, DocId, PostNum, ScratchSyms, SymbolTable};

use crate::arrange::{arrangements, ARRANGEMENT_LIMIT};
use crate::engine::{PrixEngine, SegTier};
use crate::index::{ExecOpts, IndexError, IndexKind, PrixIndex, QueryStats, Result, TwigMatch};
use crate::plan::{AltProvider, EngineChoice, EngineId, Planner, Routed, Router};
use crate::query::TwigQuery;
use crate::valix::{PredEval, Valix};
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

/// One tier's index pair, `(rp, ep)`: the shape [`pick_index`] routes
/// over.
type TierRefs<'a> = (&'a PrixIndex, &'a PrixIndex);

/// An immutable, epoch-pinned view of a [`PrixEngine`], and the only
/// way to query one.
///
/// Everything reachable from a snapshot reads as of its
/// [`EngineSnapshot::epoch`]: the index handles are clones sharing the
/// buffer pool, and every query method installs the snapshot's epoch
/// pin for the duration of the call so the pool serves pre-images of
/// any page a concurrent ingest has rewritten.
pub struct EngineSnapshot {
    epoch: u64,
    syms: Arc<SymbolTable>,
    rp: PrixIndex,
    ep: PrixIndex,
    /// Immutable segment tiers at capture time. The tiers themselves
    /// never change after publication; cloning shares the underlying
    /// segment readers. Epoch pinning is only needed for the mutable
    /// `rp`/`ep` handles above.
    segments: Vec<SegTier>,
    generation: u64,
    /// The engine's planner, *shared* (not frozen): observed stage
    /// clocks from queries served off this snapshot feed the same
    /// statistics later plans read. Plans are advisory — sharing never
    /// affects result bytes.
    planner: Arc<Planner>,
    /// The delta of the value index at capture time (the tiers' value
    /// runs are in `segments`). A clone of the engine's handle: shares
    /// pages through the pool, and under this snapshot's epoch pin
    /// reads the frozen bytes of its epoch like `rp`/`ep` do.
    valix: Valix,
    /// `(bytes, records)` of the batch log at capture time.
    log: (u64, u64),
    pin: EpochPin,
}

impl EngineSnapshot {
    /// The engine as it stands, pinned. `prev` is the snapshot this
    /// one supersedes, if any: the symbol table only grows, so when
    /// `prev` froze one of the same length it is the same table and is
    /// shared instead of copied.
    pub(crate) fn capture(engine: &PrixEngine, prev: Option<&EngineSnapshot>) -> Self {
        let pin = engine.pool().pin_epoch();
        let syms = match prev {
            Some(prev) if prev.syms.len() == engine.symbols().len() => Arc::clone(&prev.syms),
            _ => Arc::new(engine.symbols().clone()),
        };
        EngineSnapshot {
            epoch: pin.epoch(),
            syms,
            rp: engine.rp_index().clone(),
            ep: engine.ep_index().clone(),
            segments: engine.seg_tiers().to_vec(),
            generation: engine.generation(),
            planner: Arc::clone(engine.planner()),
            valix: engine.valix().clone(),
            log: engine.log().map_or((0, 0), |l| (l.len(), l.records())),
            pin,
        }
    }

    /// The tier list a query descends: segments in ascending
    /// `doc_base` order, then the mutable delta. The mutable tier joins
    /// only when it has documents (or when there is nothing else): an
    /// empty delta would re-run every trie descent for zero candidates,
    /// and — worse — flip the conservative truncation flag for limited
    /// queries. Omitting it keeps a freshly bulk-built or just-compacted
    /// engine bit-identical to a single-tier engine over the same
    /// documents, which is the property the `bulk_equals_incremental`
    /// suite pins.
    fn tiers(&self) -> Vec<TierRefs<'_>> {
        let mut tiers: Vec<TierRefs<'_>> = self.segments.iter().map(|t| (&t.rp, &t.ep)).collect();
        if tiers.is_empty() || self.mutable_docs() > 0 {
            tiers.push((&self.rp, &self.ep));
        }
        tiers
    }

    /// Immutable segment tiers visible at this epoch.
    pub fn segment_tiers(&self) -> usize {
        self.segments.len()
    }

    /// Segment generation of the manifest visible at this epoch
    /// (0 = the database has never been segmented).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Documents living in immutable segments at this epoch.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|t| u64::from(t.n_docs)).sum()
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

    /// The published epoch this view is pinned at.
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
    /// the remaining trie range queries and refinements never happen —
    /// and matches come in trie-traversal order per tier instead of
    /// `(doc, positions)` candidate order.
    pub fn query_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        self.execute_prix(q, opts, None)
    }

    /// The ordered-query path, optionally forcing one index kind (the
    /// router's RP-vs-EP decision; §5.6's rule when `None`).
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

    /// Opens an execution at this epoch: installs the pin, probes the
    /// value index for `q`'s predicates, lists the tiers, and only then
    /// starts the I/O scope and the clock (the probe's page and run
    /// block reads are reported as `valix_*` counters, not as query
    /// I/O).
    fn begin(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<(Execution<'_>, Option<PredEval>)> {
        let _pin = self.pin.guard();
        let pred = PredEval::build(q, &self.segments, &self.valix, &self.syms)?;
        let exec = Execution {
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
            _pin,
        };
        Ok((exec, pred))
    }

    /// Executes a batch of ordered twig queries on up to `threads`
    /// worker threads, returning one [`QueryOutcome`] per query in
    /// input order. Every worker reads this snapshot's epoch (the pin
    /// is installed per query, so it is in effect on each worker
    /// thread).
    pub fn query_batch(&self, queries: &[TwigQuery], threads: usize) -> Result<Vec<QueryOutcome>> {
        self.query_batch_opts(queries, threads, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query_batch`] with execution options (each
    /// query gets the same `opts`, including any limit). Workers pull
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
    /// arrangement (§5.7) and unioning the embeddings.
    pub fn query_unordered(&self, q: &TwigQuery) -> Result<QueryOutcome> {
        self.query_unordered_opts(q, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query_unordered`] with execution options. With
    /// [`ExecOpts::limit`] set, arrangements interleave through the
    /// *shared* limit: distinct base-numbered matches count against the
    /// one budget, and as soon as it is spent the current stream is
    /// abandoned mid-trie and the remaining arrangements never run at
    /// all. (A per-stream limit would be unsound here — k matches from
    /// one arrangement may collapse with earlier ones in the dedup —
    /// which is why the budget is kept out of the streams.)
    /// They also run cheapest-estimated-first then, so the budget fills
    /// from the arrangements expected to drain (or fail) fastest.
    /// Without a limit the order is left alone — every arrangement runs
    /// to completion anyway, and keeping the stock order keeps the
    /// concatenated match vector bit-identical to older builds.
    pub fn query_unordered_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        let mut arrs = arrangements(q, ARRANGEMENT_LIMIT)
            .map_err(|e| IndexError::Unsupported(e.to_string()))?;
        if opts.limit.is_some() {
            let queries: Vec<TwigQuery> = arrs.iter().map(|a| a.query.clone()).collect();
            let order = self.planner.rank_arrangements(&queries);
            let mut taken: Vec<Option<_>> = arrs.into_iter().map(Some).collect();
            arrs = order
                .into_iter()
                .map(|i| taken[i].take().expect("permutation visits each index once"))
                .collect();
        }
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

    /// The shared planner.
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// Plans and executes `q` through the cost-based router against
    /// this epoch's view: the planner scores every alternative,
    /// `forced` bypasses the comparison, and the result is
    /// canonicalized (matches sorted by `(doc, embedding)`) whatever
    /// engine ran.
    pub fn query_routed(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        forced: Option<EngineChoice>,
        alts: &dyn AltProvider,
    ) -> Result<Routed> {
        Router {
            planner: &self.planner,
            prix: self,
            alts,
        }
        .route(q, opts, forced)
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
        let _pin = self.pin.guard();
        let mut collection = Collection::new();
        *collection.symbols_mut() = (*self.syms).clone();
        for (rp, _) in self.tiers() {
            let base = rp.doc_base();
            for local in 0..rp.doc_count() as u32 {
                let data = rp.load_doc(base + local, true)?;
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
    /// sequences, edge constraints, MaxGap rules), followed by the
    /// cost-based planner's ranked alternatives. On a tiered view the
    /// index shown is the *first* tier's — every tier routes the same
    /// way. Parses against a private copy of the symbol table (explain
    /// needs names for every query label, including ones this epoch has
    /// never seen).
    pub fn explain(&self, xpath: &str) -> Result<String> {
        let mut syms = (*self.syms).clone();
        let q = parse_xpath(xpath, &mut syms)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        let _pin = self.pin.guard();
        let (rp, ep) = self.tiers()[0];
        let idx = pick_index(rp, ep, &q, None)?;
        let mut out = format!("index: {}\n", idx.kind());
        out.push_str(&idx.explain(&q, &syms)?);
        if let Some(pred) = PredEval::build(&q, &self.segments, &self.valix, &syms)? {
            out.push_str(&explain_pred(&q, &pred, &syms));
        }
        let report = self.planner.decide(&q, true, &ExecOpts::default(), None);
        out.push_str(&report.render());
        Ok(out)
    }
}

/// §5.6's optimizer rule over one tier's index pair: value queries need
/// the EPIndex; value-free queries take the RPIndex ("If twig queries
/// have no values, then indexing Regular-Prüfer sequences is
/// recommended"). `force` overrides the rule (the planner's RP-vs-EP
/// choice, or `--engine prix_rp`/`prix_ep`); forcing the RPIndex for a
/// value query is refused — it cannot answer it.
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
    _pin: PinGuard,
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
        pred: Option<&PredEval>,
        force: Option<IndexKind>,
        mut keep: impl FnMut(TwigMatch) -> Option<TwigMatch>,
    ) -> Result<()> {
        for &(rp, ep) in &self.tiers {
            let idx = pick_index(rp, ep, q, force)?;
            self.index_used = idx.kind();
            let mut stream = idx.stream(q, &self.stream_opts, pred)?;
            while self.budget > 0 {
                let Some(m) = stream.next_match()? else {
                    break;
                };
                if let Some(m) = keep(m) {
                    self.matches.push(m);
                    self.budget -= 1;
                }
            }
            add_filter_counters(&mut self.stats, &stream.stats());
            if !stream.exhausted() {
                self.truncated = true;
                break;
            }
        }
        Ok(())
    }

    /// Closes the execution: match count, the valix probe counters, the
    /// I/O scope and the clock.
    fn finish(mut self, pred: Option<&PredEval>) -> QueryOutcome {
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
fn explain_pred(q: &TwigQuery, pred: &PredEval, syms: &SymbolTable) -> String {
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
    /// `(input position, reason)` for documents rejected cleanly
    /// (parse errors, trie scope exhausted). Rejection never touches
    /// either index.
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
    poisoned: AtomicBool,
    /// The engine's *current* buffer pool, mirrored here so metrics
    /// and shutdown never block on the writer lock. Behind its own
    /// mutex because [`SharedEngine::compact`] swaps the pool.
    pool: Mutex<Arc<prix_storage::BufferPool>>,
    /// Pools superseded by compaction. Held weakly: a retired pool
    /// stays alive only while some snapshot still pins it, and
    /// [`SharedEngine::pinned_epochs`] keeps counting those readers
    /// until they drain.
    retired_pools: Mutex<Vec<std::sync::Weak<prix_storage::BufferPool>>>,
    /// Lifetime segment-block I/O counters (shared with the engine;
    /// compaction never resets them).
    seg_io: Arc<prix_storage::IoStats>,
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
        let pool = Arc::clone(engine.pool());
        let seg_io = Arc::clone(engine.seg_io());
        let recovery = engine.recovery();
        SharedEngine {
            writer: Mutex::new(engine),
            current: Mutex::new(current),
            poisoned: AtomicBool::new(false),
            pool: Mutex::new(pool),
            retired_pools: Mutex::new(Vec::new()),
            seg_io,
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

    /// The engine's *current* buffer pool (metrics, shutdown flush).
    /// Does not take the writer lock. Compaction replaces the pool, so
    /// callers get a clone of the live `Arc` rather than a reference.
    pub fn pool(&self) -> Arc<prix_storage::BufferPool> {
        Arc::clone(&self.pool.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Lifetime segment-block I/O counters (`/metrics`). Never reset,
    /// even across compaction pool swaps.
    pub fn seg_io(&self) -> &Arc<prix_storage::IoStats> {
        &self.seg_io
    }

    /// Epoch-pin observability aggregated across the live pool *and*
    /// every pool retired by compaction that old snapshots still hold:
    /// `(active pins, oldest pinned epoch)`. Dead retired pools are
    /// pruned on the way.
    pub fn pinned_epochs(&self) -> (usize, Option<u64>) {
        let mut count = 0usize;
        let mut oldest: Option<u64> = None;
        let mut fold = |(c, o): (usize, Option<u64>)| {
            count += c;
            oldest = match (oldest, o) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        fold(self.pool().pinned_epochs());
        let mut retired = self.retired_pools.lock().unwrap_or_else(|e| e.into_inner());
        retired.retain(|w| match w.upgrade() {
            Some(p) => {
                fold(p.pinned_epochs());
                true
            }
            None => false,
        });
        (count, oldest)
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
            Ok(true) => {
                // The engine swapped in a fresh pool; mirror the swap
                // here and keep a weak handle on the old pool so its
                // pinned readers stay observable until they drain.
                let new_pool = Arc::clone(engine.pool());
                {
                    let mut slot = self.pool.lock().unwrap_or_else(|e| e.into_inner());
                    let old = std::mem::replace(&mut *slot, new_pool);
                    self.retired_pools
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Arc::downgrade(&old));
                }
                Ok(Some(self.publish(engine)))
            }
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
    /// its epoch: the buffer pool retains pre-images of every page a
    /// later ingest rewrites until the snapshot is dropped.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Whether a failed ingest has poisoned the writer. Reads keep
    /// serving the last published snapshot; further ingests are
    /// refused.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
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

    /// [`SharedEngine::ingest`] over a wrapper document whose root's
    /// element children each become one indexed document (see
    /// `PrixEngine::ingest_batch_split`).
    pub fn ingest_split(&self, wrapper: &str) -> Result<IngestReport> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.ingest_locked(guard, |e| e.ingest_batch_split(wrapper))
    }

    /// [`SharedEngine::ingest`] that fails fast with `None` when
    /// another ingest holds the writer lock, so servers can shed load
    /// (HTTP 503) instead of queueing unboundedly.
    pub fn try_ingest(&self, docs: &[String]) -> Option<Result<IngestReport>> {
        self.try_writer()
            .map(|guard| self.ingest_locked(guard, |e| e.ingest_batch(docs)))
    }

    /// Non-blocking [`SharedEngine::ingest_split`].
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
        engine.pool().begin_ingest();
        // One save commits the whole batch: the durability point.
        let ingested = run(&mut engine).and_then(|outcome| {
            if !outcome.accepted.is_empty() {
                engine.save()?;
            }
            Ok(outcome)
        });
        match ingested {
            Ok(outcome) if outcome.accepted.is_empty() => {
                // Nothing validated, nothing written: rejections are
                // read-only, so this abort has no pre-images to
                // restore.
                engine.pool().abort_ingest().map_err(IndexError::Storage)?;
                Ok(IngestReport {
                    accepted: outcome.accepted,
                    rejected: outcome.rejected,
                    epoch: engine.pool().published_epoch(),
                })
            }
            Ok(outcome) => {
                // Publishing moves the epoch and swapping the snapshot
                // makes the saved batch visible. The new snapshot's pin at
                // the new epoch replaces the old one's role of keeping
                // in-flight pre-images alive.
                let epoch = engine.pool().publish_ingest();
                let published = self.publish(&engine);
                debug_assert_eq!(published, epoch);
                // The batch is durable and visible whatever happens
                // next: a compaction that fails poisons the writer, and
                // later ingests report that.
                if engine.log_full() && self.compact_locked(&mut engine).is_ok() {
                    self.log_compactions.fetch_add(1, Ordering::Relaxed);
                }
                Ok(IngestReport {
                    accepted: outcome.accepted,
                    rejected: outcome.rejected,
                    epoch,
                })
            }
            Err(e) => {
                // A document passed validation but failed mid-insert,
                // or the save failed: the in-memory index state is no
                // longer trustworthy.
                // Roll the pool back to the published epoch and refuse
                // further writes; readers keep the last good snapshot.
                self.poisoned.store(true, Ordering::Release);
                let _ = engine.pool().abort_ingest();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::trie::LabelingMode;

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
        let unordered = e.query_unordered(&q).unwrap();
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
        let err = e.query_unordered(&q).unwrap_err().to_string();
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
        let out = e.query_unordered(&q).unwrap();
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
        assert!(out.io.physical_reads > 0, "cold run must hit the disk");
        let warm = e.query(&q).unwrap();
        assert_eq!(warm.io.physical_reads, 0, "warm run is fully cached");
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
            Some(EngineChoice::Forced(EngineId::PrixRp)),
            &crate::plan::NoAlts,
        );
        assert!(
            routed.is_err(),
            "--engine prix_rp goes through the same rule"
        );
        assert_eq!(e.query(&q).unwrap().matches.len(), 2, "unforced: EPIndex");
    }

    #[test]
    fn dynamic_labeling_engine_matches_exact() {
        let mut c = Collection::new();
        for i in 0..20 {
            c.add_xml(&format!("<a><b><c>v{i}</c></b><d/></a>"))
                .unwrap();
        }
        let exact = PrixEngine::build(c.clone(), EngineConfig::default()).unwrap();
        let dynamic = PrixEngine::build(
            c,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let mut syms = exact.symbols().clone();
        let q = parse_xpath("//a[./b/c]/d", &mut syms).unwrap();
        let a = exact.snapshot().query(&q).unwrap();
        let b = dynamic.snapshot().query(&q).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.matches.len(), 20);
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
    }

    /// Collapses digit runs (with embedded dots) to `#` and space runs
    /// to one space, so the explain pins cover the full output shape —
    /// including the planner section — without re-pinning on every
    /// cost-constant or dataset tweak.
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
             planner: engine=prix_rp maxgap=on cost=#us (routed) shape=n#l#v#d# ewma_rows=#\n\
             \x20alt prix_rp maxgap=on cost= #us\n\
             \x20alt prix_rp maxgap=off cost= #us\n\
             \x20alt twigstack cost= #us\n\
             \x20alt prix_ep maxgap=on cost= #us\n\
             \x20alt prix_ep maxgap=off cost= #us\n\
             \x20alt twigstackxb cost= #us\n\
             \x20alt vist cost= #us\n"
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
             planner: engine=prix_rp maxgap=on cost=#us (routed) shape=n#l#v#d# ewma_rows=#\n\
             \x20alt prix_rp maxgap=on cost= #us\n\
             \x20alt prix_rp maxgap=off cost= #us\n\
             \x20alt twigstack cost= #us\n\
             \x20alt prix_ep maxgap=on cost= #us\n\
             \x20alt prix_ep maxgap=off cost= #us\n\
             \x20alt twigstackxb cost= #us\n\
             \x20alt vist cost= #us\n"
        );
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
            let batch = e.query_batch(&queries, threads).unwrap();
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
        let batch = e.query_batch(&queries, 0).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, out) in queries.iter().zip(&batch) {
            assert_eq!(out.matches, e.query(q).unwrap().matches);
        }
        // Empty input with zero threads is a no-op, not a panic.
        assert!(e.query_batch(&[], 0).unwrap().is_empty());
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
