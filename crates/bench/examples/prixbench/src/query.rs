//! The library workload (`query_cold`): one thread calls
//! `EngineSnapshot::parse_query` + `query_opts` in a closed loop,
//! uniformly over the query pool, in whole passes, with the buffer pool
//! emptied before every query.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use prix_core::{EngineSnapshot, ExecOpts, PrixEngine, QueryOutcome, SharedEngine};
use prix_storage::IoSnapshot;

use crate::clock::Clock;
use crate::data::{Class, QuerySpec};
use crate::setup::POOL_PAGES;
use crate::stats::{self, Latency};
use crate::trace::Recorder;

/// Stage clocks of one query class.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    pub queries: u64,
    pub filter_ns: u64,
    pub refine_ns: u64,
    pub project_ns: u64,
}

/// Sums of what the engine reported for every query executed: the
/// public counters of `QueryOutcome.{stats,io}`.
#[derive(Debug, Default, Clone)]
pub struct EngineSums {
    pub all: StageSums,
    pub by_class: [StageSums; Class::ALL.len()],
    pub io: IoSnapshot,
    pub range_queries: u64,
    pub nodes_scanned: u64,
    pub maxgap_pruned: u64,
    pub candidates: u64,
    pub refined: u64,
    pub matches: u64,
    /// Over `pred` queries only.
    pub pred_matches: u64,
    pub pred_candidates: u64,
    pub valix_postings: u64,
    pub pred_skipped: u64,
}

impl EngineSums {
    pub fn add(&mut self, class: Class, out: &QueryOutcome) {
        for s in [&mut self.all, &mut self.by_class[class.index()]] {
            s.queries += 1;
            s.filter_ns += out.stats.filter_time.as_nanos() as u64;
            s.refine_ns += out.stats.refine_time.as_nanos() as u64;
            s.project_ns += out.stats.project_time.as_nanos() as u64;
        }
        self.io.logical_reads += out.io.logical_reads;
        self.io.physical_reads += out.io.physical_reads;
        self.io.seg_block_reads += out.io.seg_block_reads;
        self.io.seg_block_fetches += out.io.seg_block_fetches;
        self.range_queries += out.stats.range_queries;
        self.nodes_scanned += out.stats.nodes_scanned;
        self.maxgap_pruned += out.stats.maxgap_pruned;
        self.candidates += out.stats.candidates;
        self.refined += out.stats.refined;
        self.matches += out.stats.matches;
        if class == Class::Pred {
            self.pred_matches += out.stats.matches;
            self.pred_candidates += out.stats.candidates;
            self.valix_postings += out.stats.valix_postings;
            self.pred_skipped += out.stats.pred_skipped;
        }
    }

    /// Physical page reads plus segment block fetches: the paper's
    /// Disk-IO column.
    pub fn pages(&self) -> u64 {
        self.io.physical_reads + self.io.seg_block_fetches
    }
}

/// Places the stage durations the engine reported back to back inside
/// the call that produced them, as child spans.
pub fn record_stages(
    rec: &mut Recorder,
    out: &QueryOutcome,
    call_start_ns: u64,
    parent: usize,
    request: u64,
) {
    let mut at = call_start_ns;
    for (name, d) in [
        ("core.filter", out.stats.filter_time),
        ("core.refine", out.stats.refine_time),
        ("core.project", out.stats.project_time),
    ] {
        let ns = d.as_nanos() as u64;
        rec.add(name, at, ns, Some(parent), request);
        at += ns;
    }
}

/// An engine opened for library calls.
pub struct Lib {
    shared: SharedEngine,
}

/// What a run of whole passes measured.
#[derive(Default)]
pub struct QueryRun {
    /// Per-query latency (parse + execute), in arrival order.
    pub lat_us: Vec<f64>,
    /// When each query was sent.
    pub sent_at: Vec<Instant>,
    pub sums: EngineSums,
    pub wrong: u64,
}

impl QueryRun {
    /// Scales every latency to the reference clock.
    pub fn scale(&mut self, clock: &Clock) {
        for (lat, at) in self.lat_us.iter_mut().zip(&self.sent_at) {
            *lat *= clock.factor(*at);
        }
    }

    /// The latency figures of the run's passes, each of which runs the
    /// same `pool_len` queries in the same order.
    pub fn latency(&self, pool_len: usize) -> Latency {
        stats::latency(&stats::best_per_slot(&self.lat_us, pool_len))
    }
}

impl Lib {
    pub fn open(db: &Path) -> Result<Lib, String> {
        let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
        Ok(Lib {
            shared: SharedEngine::new(engine),
        })
    }

    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.snapshot()
    }

    /// One pass over the pool in pool order. The buffer pool is emptied
    /// before every query, outside the timed call.
    pub fn pass(
        &self,
        qpool: &[QuerySpec],
        mut rec: Option<&mut Recorder>,
        run: &mut QueryRun,
    ) -> Result<(), String> {
        let snap = self.shared.snapshot();
        let pool = self.shared.pool();
        for spec in qpool {
            pool.clear().map_err(|e| format!("clear: {e}"))?;
            let opts = spec
                .limit
                .map_or_else(ExecOpts::new, |l| ExecOpts::new().with_limit(l));
            let request = run.lat_us.len() as u64;
            let span = rec.as_deref_mut().map(|r| r.begin("query", None, request));
            let t0 = Instant::now();
            let parse_span = rec
                .as_deref_mut()
                .map(|r| r.begin("core.xpath.parse", span, request));
            let q = snap
                .parse_query(&spec.xpath)
                .map_err(|e| format!("{}: {e}", spec.xpath))?;
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), parse_span) {
                r.end(id);
            }
            let exec_span = rec
                .as_deref_mut()
                .map(|r| (r.begin("core.query", span, request), r.now_ns()));
            let out = snap
                .query_opts(&q, &opts)
                .map_err(|e| format!("{}: {e}", spec.xpath))?;
            let t2 = Instant::now();
            if let (Some(r), Some((id, start_ns))) = (rec.as_deref_mut(), exec_span) {
                r.end(id);
                record_stages(r, &out, start_ns, id, request);
                r.end(span.expect("opened with the recorder"));
            }
            run.lat_us.push((t2 - t0).as_secs_f64() * 1e6);
            run.sent_at.push(t0);
            run.sums.add(spec.class, &out);
            if out.matches.len() as u64 != spec.expected(spec.limit) {
                run.wrong += 1;
            }
            std::hint::black_box(out);
        }
        Ok(())
    }

    /// Whole passes until `seconds` have gone by.
    pub fn run(
        &self,
        qpool: &[QuerySpec],
        seconds: f64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<QueryRun, String> {
        let mut run = QueryRun::default();
        let start = Instant::now();
        loop {
            self.pass(qpool, rec.as_deref_mut(), &mut run)?;
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(run);
            }
        }
    }
}
