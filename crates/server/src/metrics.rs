//! Server metrics: request counters, latency histograms, and the
//! Prometheus text exposition rendered by `GET /metrics`.
//!
//! Everything on the hot path is a plain atomic — a request records
//! its outcome with two `fetch_add`s and never takes a lock. Only the
//! per-(endpoint, status) counter table uses a mutex, and that table
//! is touched once per request and is tiny.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use prix_core::plan::EngineId;
use prix_storage::{IoSnapshot, RecoveryReport};

use crate::cache::CacheSnapshot;
use crate::json::escape;

/// Fixed latency-histogram bucket upper bounds, in microseconds.
/// Spanning 100 µs – 2.5 s covers both warm in-memory queries and cold
/// disk-bound twig joins; the exposition adds the implicit `+Inf`.
pub const LATENCY_BUCKETS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000,
];

/// The endpoints the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /query`
    Query,
    /// `POST /batch`
    Batch,
    /// `POST /documents`
    Documents,
    /// `GET /explain`
    Explain,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /shutdown`
    Shutdown,
    /// Anything else (404s, parse failures before routing, ...).
    Other,
}

/// The pipeline stages of the streaming query executor, as exposed in
/// the `prix_query_stage_duration_seconds` histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Algorithm 1 subsequence filtering (trie range queries + MaxGap
    /// pruning + docid scans).
    Filter,
    /// Algorithm 2 refinement (per-document record loads + phases).
    Refine,
    /// Embedding projection + dedup.
    Project,
}

impl Stage {
    /// All stages, in exposition order.
    pub const ALL: [Stage; 3] = [Stage::Filter, Stage::Refine, Stage::Project];

    /// The `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Filter => "filter",
            Stage::Refine => "refine",
            Stage::Project => "project",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).unwrap()
    }
}

impl Endpoint {
    /// All endpoints, in exposition order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Query,
        Endpoint::Batch,
        Endpoint::Documents,
        Endpoint::Explain,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Documents => "documents",
            Endpoint::Explain => "explain",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|e| *e == self).unwrap()
    }
}

/// A fixed-bucket cumulative histogram (Prometheus semantics).
#[derive(Debug, Default)]
struct Histogram {
    /// `counts[i]` = observations <= `LATENCY_BUCKETS_US[i]`; the
    /// per-bucket counts are *not* cumulative in storage, only in the
    /// exposition.
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Engine lifecycle gauges sampled at exposition time: the segment
/// tiering state of the published snapshot plus the reader-pin
/// pressure holding old epochs (and their pre-compaction buffer
/// pools) alive.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineGauges {
    /// Segment generation of the published manifest (0 = never
    /// segmented).
    pub generation: u64,
    /// Immutable segment tiers currently serving reads.
    pub segment_tiers: u64,
    /// Documents served from immutable segments.
    pub segment_docs: u64,
    /// Documents in the mutable delta (what a compaction would fold).
    pub mutable_docs: u64,
    /// Reader pins currently holding an epoch open, across the live
    /// pool and every pool retired by compaction.
    pub pinned_epochs: u64,
    /// `published_epoch - oldest_pinned_epoch` (0 when nothing is
    /// pinned): how far behind the slowest reader is.
    pub pinned_oldest_lag: u64,
    /// Segment blocks served (cache hits + fetches), engine lifetime.
    pub seg_block_reads: u64,
    /// Segment blocks actually read from disk, engine lifetime.
    pub seg_block_fetches: u64,
    /// Current length of the write-ahead log in bytes.
    pub wal_bytes: u64,
    /// Pages whose latest image is in the log, not the page file.
    pub log_resident_pages: u64,
}

/// The server's metric registry. One instance lives in the shared
/// server state; every handler records into it.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(endpoint, status) -> requests`. Status cardinality is tiny
    /// (the server emits ~8 distinct codes), so a locked Vec is fine.
    requests: Mutex<Vec<(usize, u16, u64)>>,
    latency: [Histogram; Endpoint::ALL.len()],
    /// Per-stage executor timings (`filter` / `refine` / `project`),
    /// one observation per executed query.
    stage: [Histogram; Stage::ALL.len()],
    /// Connections rejected with 503 by admission control.
    rejected: AtomicU64,
    /// Connections currently being handled (gauge).
    active: AtomicU64,
    /// Documents accepted and published by `POST /documents`.
    ingest_documents: AtomicU64,
    /// Ingest batches processed (each `POST /documents` that reached
    /// the writer, whether or not anything was accepted).
    ingest_batches: AtomicU64,
    /// Documents refused: per-document validation rejections plus one
    /// per request shed with 503 while the writer was busy.
    ingest_rejected: AtomicU64,
    /// Compactions published (mutable delta folded into a segment).
    compactions: AtomicU64,
    /// Queries the router executed, by chosen engine (indexed by
    /// [`EngineId::index`]).
    planner_chosen: [AtomicU64; EngineId::ALL.len()],
    /// Routed (not forced) queries whose observed wall clock blew
    /// through the planner's estimate.
    planner_mispredict: AtomicU64,
    /// Value-index probes issued by predicate queries.
    valix_probes: AtomicU64,
    /// Value-index postings scanned across all probes.
    valix_postings: AtomicU64,
    /// Structural candidates skipped by the value-index pre-filter.
    valix_pred_skipped: AtomicU64,
    /// Refined matches rejected by positional predicate verification.
    valix_pred_rejected: AtomicU64,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let mut table = self.requests.lock().unwrap_or_else(|e| e.into_inner());
        let idx = endpoint.index();
        match table.iter_mut().find(|(e, s, _)| *e == idx && *s == status) {
            Some((_, _, n)) => *n += 1,
            None => table.push((idx, status, 1)),
        }
        drop(table);
        self.latency[idx].observe(elapsed);
    }

    /// Records one executor stage's wall clock for one query.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage[stage.index()].observe(elapsed);
    }

    /// Records an admission-control rejection (503 before a worker was
    /// ever involved).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total rejections so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Records one ingest batch that reached the writer: `accepted`
    /// documents published, `rejected` documents refused by
    /// validation.
    pub fn record_ingest(&self, accepted: u64, rejected: u64) {
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        self.ingest_documents.fetch_add(accepted, Ordering::Relaxed);
        self.ingest_rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    /// Records an ingest request shed with 503 because the writer was
    /// busy (counts once into the rejected series, not as a batch).
    pub fn record_ingest_shed(&self) {
        self.ingest_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Documents accepted so far (for tests).
    pub fn ingest_documents(&self) -> u64 {
        self.ingest_documents.load(Ordering::Relaxed)
    }

    /// Ingest batches processed so far (for tests).
    pub fn ingest_batches(&self) -> u64 {
        self.ingest_batches.load(Ordering::Relaxed)
    }

    /// Documents/requests refused so far (for tests).
    pub fn ingest_rejected(&self) -> u64 {
        self.ingest_rejected.load(Ordering::Relaxed)
    }

    /// Records one published compaction.
    /// Records one routed query execution: which engine the planner
    /// chose, and whether the estimate turned out badly wrong.
    pub fn record_planner(&self, chosen: EngineId, mispredicted: bool) {
        self.planner_chosen[chosen.index()].fetch_add(1, Ordering::Relaxed);
        if mispredicted {
            self.planner_mispredict.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one executed query's value-index counters in (all zeros
    /// for predicate-free queries — recording those is free).
    pub fn record_valix(&self, probes: u64, postings: u64, skipped: u64, rejected: u64) {
        self.valix_probes.fetch_add(probes, Ordering::Relaxed);
        self.valix_postings.fetch_add(postings, Ordering::Relaxed);
        self.valix_pred_skipped
            .fetch_add(skipped, Ordering::Relaxed);
        self.valix_pred_rejected
            .fetch_add(rejected, Ordering::Relaxed);
    }

    /// Compactions published so far (for tests).
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Marks a connection as being handled; decremented by the guard.
    pub fn connection_opened(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Inverse of [`Metrics::connection_opened`].
    pub fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests recorded for `(endpoint, status)` (for tests).
    pub fn requests_for(&self, endpoint: Endpoint, status: u16) -> u64 {
        let table = self.requests.lock().unwrap_or_else(|e| e.into_inner());
        let idx = endpoint.index();
        table
            .iter()
            .find(|(e, s, _)| *e == idx && *s == status)
            .map(|(_, _, n)| *n)
            .unwrap_or(0)
    }

    /// Renders the Prometheus text exposition (format 0.0.4).
    ///
    /// `io` is the engine buffer pool's lifetime counter snapshot;
    /// `resident`/`capacity` describe its current occupancy;
    /// `queue_depth` is the HTTP work queue's current length;
    /// `recovery` is what crash recovery did when the database was
    /// opened (`None` for an engine built in this process — the series
    /// still render, as zeros, so dashboards never see a metric
    /// vanish); `epoch` is
    /// the currently published snapshot epoch; `plan_cache` /
    /// `result_cache` are the query caches' counter snapshots;
    /// `engine` is the segment/pin gauge sample.
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        io: IoSnapshot,
        resident: usize,
        capacity: usize,
        queue_depth: usize,
        recovery: Option<RecoveryReport>,
        epoch: u64,
        plan_cache: CacheSnapshot,
        result_cache: CacheSnapshot,
        engine: EngineGauges,
    ) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str(
            "# HELP prix_http_requests_total Requests served, by endpoint and status code.\n",
        );
        out.push_str("# TYPE prix_http_requests_total counter\n");
        let mut table = {
            let t = self.requests.lock().unwrap_or_else(|e| e.into_inner());
            t.clone()
        };
        table.sort();
        for (idx, status, n) in &table {
            out.push_str(&format!(
                "prix_http_requests_total{{endpoint={},code=\"{status}\"}} {n}\n",
                escape(Endpoint::ALL[*idx].label()),
            ));
        }

        out.push_str(
            "# HELP prix_http_rejected_total Connections refused with 503 by admission control.\n",
        );
        out.push_str("# TYPE prix_http_rejected_total counter\n");
        out.push_str(&format!("prix_http_rejected_total {}\n", self.rejected()));

        out.push_str("# HELP prix_http_connections_active Connections currently being handled.\n");
        out.push_str("# TYPE prix_http_connections_active gauge\n");
        out.push_str(&format!(
            "prix_http_connections_active {}\n",
            self.active.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP prix_http_queue_depth Connections waiting in the worker queue.\n");
        out.push_str("# TYPE prix_http_queue_depth gauge\n");
        out.push_str(&format!("prix_http_queue_depth {queue_depth}\n"));

        out.push_str("# HELP prix_http_request_duration_seconds Request latency, by endpoint.\n");
        out.push_str("# TYPE prix_http_request_duration_seconds histogram\n");
        for ep in Endpoint::ALL {
            let h = &self.latency[ep.index()];
            if h.total() == 0 {
                continue;
            }
            let label = escape(ep.label());
            let mut cum = 0u64;
            for (i, &bound_us) in LATENCY_BUCKETS_US.iter().enumerate() {
                cum += h.counts[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "prix_http_request_duration_seconds_bucket{{endpoint={label},le=\"{}\"}} {cum}\n",
                    bound_us as f64 / 1e6
                ));
            }
            cum += h.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "prix_http_request_duration_seconds_bucket{{endpoint={label},le=\"+Inf\"}} {cum}\n"
            ));
            out.push_str(&format!(
                "prix_http_request_duration_seconds_sum{{endpoint={label}}} {}\n",
                h.sum_us.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "prix_http_request_duration_seconds_count{{endpoint={label}}} {cum}\n"
            ));
        }

        out.push_str("# HELP prix_query_stage_duration_seconds Executor stage wall clock per query, by pipeline stage.\n");
        out.push_str("# TYPE prix_query_stage_duration_seconds histogram\n");
        for st in Stage::ALL {
            let h = &self.stage[st.index()];
            if h.total() == 0 {
                continue;
            }
            let label = escape(st.label());
            let mut cum = 0u64;
            for (i, &bound_us) in LATENCY_BUCKETS_US.iter().enumerate() {
                cum += h.counts[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "prix_query_stage_duration_seconds_bucket{{stage={label},le=\"{}\"}} {cum}\n",
                    bound_us as f64 / 1e6
                ));
            }
            cum += h.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "prix_query_stage_duration_seconds_bucket{{stage={label},le=\"+Inf\"}} {cum}\n"
            ));
            out.push_str(&format!(
                "prix_query_stage_duration_seconds_sum{{stage={label}}} {}\n",
                h.sum_us.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "prix_query_stage_duration_seconds_count{{stage={label}}} {cum}\n"
            ));
        }

        out.push_str("# HELP prix_engine_epoch The currently published snapshot epoch (advances once per ingest batch).\n");
        out.push_str("# TYPE prix_engine_epoch gauge\n");
        out.push_str(&format!("prix_engine_epoch {epoch}\n"));

        // Segment lifecycle. Exact names are a dashboard contract:
        // the pin gauges say how many reader snapshots are holding an
        // epoch (and, after a compaction, its retired buffer pool)
        // alive, and how far the slowest one lags the published epoch.
        out.push_str("# HELP prix_engine_pinned_epochs Reader pins currently holding an epoch open, across the live and all retired buffer pools.\n");
        out.push_str("# TYPE prix_engine_pinned_epochs gauge\n");
        out.push_str(&format!(
            "prix_engine_pinned_epochs {}\n",
            engine.pinned_epochs
        ));
        out.push_str("# HELP prix_engine_pinned_oldest_lag Epochs between the published epoch and the oldest pinned reader (0 when nothing is pinned).\n");
        out.push_str("# TYPE prix_engine_pinned_oldest_lag gauge\n");
        out.push_str(&format!(
            "prix_engine_pinned_oldest_lag {}\n",
            engine.pinned_oldest_lag
        ));
        out.push_str("# HELP prix_engine_generation Segment generation of the published manifest (0 = never segmented).\n");
        out.push_str("# TYPE prix_engine_generation gauge\n");
        out.push_str(&format!("prix_engine_generation {}\n", engine.generation));
        out.push_str(
            "# HELP prix_segment_tiers Immutable segment tiers currently serving reads.\n",
        );
        out.push_str("# TYPE prix_segment_tiers gauge\n");
        out.push_str(&format!("prix_segment_tiers {}\n", engine.segment_tiers));
        out.push_str("# HELP prix_segment_docs Documents served from immutable segments.\n");
        out.push_str("# TYPE prix_segment_docs gauge\n");
        out.push_str(&format!("prix_segment_docs {}\n", engine.segment_docs));
        out.push_str("# HELP prix_engine_mutable_docs Documents in the mutable delta (what a compaction would fold into a segment).\n");
        out.push_str("# TYPE prix_engine_mutable_docs gauge\n");
        out.push_str(&format!(
            "prix_engine_mutable_docs {}\n",
            engine.mutable_docs
        ));
        out.push_str(
            "# HELP prix_segment_block_reads_total Segment blocks served (cache hits + fetches).\n",
        );
        out.push_str("# TYPE prix_segment_block_reads_total counter\n");
        out.push_str(&format!(
            "prix_segment_block_reads_total {}\n",
            engine.seg_block_reads
        ));
        out.push_str("# HELP prix_segment_block_fetches_total Segment blocks read from disk.\n");
        out.push_str("# TYPE prix_segment_block_fetches_total counter\n");
        out.push_str(&format!(
            "prix_segment_block_fetches_total {}\n",
            engine.seg_block_fetches
        ));
        out.push_str("# HELP prix_compactions_total Compactions published (mutable delta folded into a segment).\n");
        out.push_str("# TYPE prix_compactions_total counter\n");
        out.push_str(&format!("prix_compactions_total {}\n", self.compactions()));

        // Planner routing. Exact names are a dashboard contract:
        // every engine renders (as zero when never chosen) so a
        // dashboard never sees a series vanish.
        out.push_str("# HELP prix_planner_engine_chosen_total Routed queries executed, by the engine the cost-based planner chose.\n");
        out.push_str("# TYPE prix_planner_engine_chosen_total counter\n");
        for id in EngineId::ALL {
            out.push_str(&format!(
                "prix_planner_engine_chosen_total{{engine=\"{}\"}} {}\n",
                id.label(),
                self.planner_chosen[id.index()].load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP prix_planner_mispredict_total Routed queries whose observed latency exceeded the planner's estimate by the misprediction factor.\n");
        out.push_str("# TYPE prix_planner_mispredict_total counter\n");
        out.push_str(&format!(
            "prix_planner_mispredict_total {}\n",
            self.planner_mispredict.load(Ordering::Relaxed)
        ));

        // The value-predicate secondary index. Exact names are a
        // dashboard contract; all four render as zeros on databases
        // that never see a predicate query.
        out.push_str(
            "# HELP prix_valix_probes_total Value-index probes issued by predicate queries.\n",
        );
        out.push_str("# TYPE prix_valix_probes_total counter\n");
        out.push_str(&format!(
            "prix_valix_probes_total {}\n",
            self.valix_probes.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP prix_valix_postings_total Value-index postings scanned across all probes.\n",
        );
        out.push_str("# TYPE prix_valix_postings_total counter\n");
        out.push_str(&format!(
            "prix_valix_postings_total {}\n",
            self.valix_postings.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP prix_valix_pred_skipped_total Structural candidates skipped by the value-index pre-filter before refinement.\n");
        out.push_str("# TYPE prix_valix_pred_skipped_total counter\n");
        out.push_str(&format!(
            "prix_valix_pred_skipped_total {}\n",
            self.valix_pred_skipped.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP prix_valix_pred_rejected_total Refined matches rejected by positional predicate verification.\n");
        out.push_str("# TYPE prix_valix_pred_rejected_total counter\n");
        out.push_str(&format!(
            "prix_valix_pred_rejected_total {}\n",
            self.valix_pred_rejected.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP prix_ingest_documents_total Documents accepted and published by POST /documents.\n");
        out.push_str("# TYPE prix_ingest_documents_total counter\n");
        out.push_str(&format!(
            "prix_ingest_documents_total {}\n",
            self.ingest_documents()
        ));
        out.push_str("# HELP prix_ingest_batches_total Ingest batches processed by the writer.\n");
        out.push_str("# TYPE prix_ingest_batches_total counter\n");
        out.push_str(&format!(
            "prix_ingest_batches_total {}\n",
            self.ingest_batches()
        ));
        out.push_str("# HELP prix_ingest_rejected_total Documents refused by validation plus ingest requests shed while the writer was busy.\n");
        out.push_str("# TYPE prix_ingest_rejected_total counter\n");
        out.push_str(&format!(
            "prix_ingest_rejected_total {}\n",
            self.ingest_rejected()
        ));

        // The query caches. Exact names are a dashboard contract:
        // prix_cache_{hits,misses,evictions}_total{cache=...} plus the
        // derived hit-ratio and occupancy gauges.
        let caches = [("plan", plan_cache), ("result", result_cache)];
        out.push_str(
            "# HELP prix_cache_hits_total Cache lookups answered from the cache, by cache.\n",
        );
        out.push_str("# TYPE prix_cache_hits_total counter\n");
        for (name, c) in &caches {
            out.push_str(&format!(
                "prix_cache_hits_total{{cache=\"{name}\"}} {}\n",
                c.hits
            ));
        }
        out.push_str("# HELP prix_cache_misses_total Cache lookups that fell through to a live evaluation, by cache.\n");
        out.push_str("# TYPE prix_cache_misses_total counter\n");
        for (name, c) in &caches {
            out.push_str(&format!(
                "prix_cache_misses_total{{cache=\"{name}\"}} {}\n",
                c.misses
            ));
        }
        out.push_str("# HELP prix_cache_evictions_total Entries removed by LRU pressure or epoch purges, by cache.\n");
        out.push_str("# TYPE prix_cache_evictions_total counter\n");
        for (name, c) in &caches {
            out.push_str(&format!(
                "prix_cache_evictions_total{{cache=\"{name}\"}} {}\n",
                c.evictions
            ));
        }
        out.push_str("# HELP prix_cache_hit_ratio Lifetime cache hit ratio in [0,1], by cache.\n");
        out.push_str("# TYPE prix_cache_hit_ratio gauge\n");
        for (name, c) in &caches {
            out.push_str(&format!(
                "prix_cache_hit_ratio{{cache=\"{name}\"}} {}\n",
                c.hit_ratio()
            ));
        }
        out.push_str("# HELP prix_cache_entries Entries currently resident, by cache.\n");
        out.push_str("# TYPE prix_cache_entries gauge\n");
        for (name, c) in &caches {
            out.push_str(&format!(
                "prix_cache_entries{{cache=\"{name}\"}} {}\n",
                c.entries
            ));
        }

        out.push_str(
            "# HELP prix_bufferpool_logical_reads_total Pages requested from the buffer pool.\n",
        );
        out.push_str("# TYPE prix_bufferpool_logical_reads_total counter\n");
        out.push_str(&format!(
            "prix_bufferpool_logical_reads_total {}\n",
            io.logical_reads
        ));
        out.push_str("# HELP prix_bufferpool_physical_reads_total Pages read from disk (the paper's Disk IO).\n");
        out.push_str("# TYPE prix_bufferpool_physical_reads_total counter\n");
        out.push_str(&format!(
            "prix_bufferpool_physical_reads_total {}\n",
            io.physical_reads
        ));
        out.push_str("# HELP prix_bufferpool_physical_writes_total Pages written back to disk.\n");
        out.push_str("# TYPE prix_bufferpool_physical_writes_total counter\n");
        out.push_str(&format!(
            "prix_bufferpool_physical_writes_total {}\n",
            io.physical_writes
        ));
        out.push_str("# HELP prix_bufferpool_fsyncs_total fsync barriers issued: one per WAL group commit, four per checkpoint (page file, sidecar, epoch advance, log truncation).\n");
        out.push_str("# TYPE prix_bufferpool_fsyncs_total counter\n");
        out.push_str(&format!("prix_bufferpool_fsyncs_total {}\n", io.fsyncs));
        out.push_str("# HELP prix_bufferpool_wal_appends_total Page images appended to the write-ahead log (spills + commits).\n");
        out.push_str("# TYPE prix_bufferpool_wal_appends_total counter\n");
        out.push_str(&format!(
            "prix_bufferpool_wal_appends_total {}\n",
            io.wal_appends
        ));
        out.push_str("# HELP prix_checkpoints_total Checkpoints completed (log-resident pages written to the page file, log truncated).\n");
        out.push_str("# TYPE prix_checkpoints_total counter\n");
        out.push_str(&format!("prix_checkpoints_total {}\n", io.checkpoints));
        out.push_str("# HELP prix_wal_bytes Current length of the write-ahead log in bytes (what a crash now would replay).\n");
        out.push_str("# TYPE prix_wal_bytes gauge\n");
        out.push_str(&format!("prix_wal_bytes {}\n", engine.wal_bytes));
        out.push_str("# HELP prix_bufferpool_log_resident_pages Pages whose latest image is in the write-ahead log, awaiting the next checkpoint.\n");
        out.push_str("# TYPE prix_bufferpool_log_resident_pages gauge\n");
        out.push_str(&format!(
            "prix_bufferpool_log_resident_pages {}\n",
            engine.log_resident_pages
        ));
        out.push_str("# HELP prix_bufferpool_flush_errors_total Buffer-pool flushes that failed (including during drop).\n");
        out.push_str("# TYPE prix_bufferpool_flush_errors_total counter\n");
        out.push_str(&format!(
            "prix_bufferpool_flush_errors_total {}\n",
            io.flush_errors
        ));
        let rec = recovery.unwrap_or_default();
        out.push_str("# HELP prix_recovery_unclean_shutdown 1 if the database was opened after an unclean shutdown.\n");
        out.push_str("# TYPE prix_recovery_unclean_shutdown gauge\n");
        out.push_str(&format!(
            "prix_recovery_unclean_shutdown {}\n",
            u64::from(rec.unclean_shutdown)
        ));
        out.push_str("# HELP prix_recovery_replayed_frames WAL frames replayed when the database was opened.\n");
        out.push_str("# TYPE prix_recovery_replayed_frames gauge\n");
        out.push_str(&format!(
            "prix_recovery_replayed_frames {}\n",
            rec.replayed_frames
        ));
        out.push_str("# HELP prix_recovery_replayed_pages Distinct pages restored by recovery when the database was opened.\n");
        out.push_str("# TYPE prix_recovery_replayed_pages gauge\n");
        out.push_str(&format!(
            "prix_recovery_replayed_pages {}\n",
            rec.replayed_pages
        ));
        out.push_str("# HELP prix_recovery_wal_bytes Write-ahead-log bytes scanned by recovery when the database was opened.\n");
        out.push_str("# TYPE prix_recovery_wal_bytes gauge\n");
        out.push_str(&format!("prix_recovery_wal_bytes {}\n", rec.wal_bytes));
        out.push_str("# HELP prix_bufferpool_hit_ratio Lifetime buffer-pool hit ratio in [0,1].\n");
        out.push_str("# TYPE prix_bufferpool_hit_ratio gauge\n");
        out.push_str(&format!("prix_bufferpool_hit_ratio {}\n", io.hit_ratio()));
        out.push_str("# HELP prix_bufferpool_resident_pages Pages currently cached.\n");
        out.push_str("# TYPE prix_bufferpool_resident_pages gauge\n");
        out.push_str(&format!("prix_bufferpool_resident_pages {resident}\n"));
        out.push_str("# HELP prix_bufferpool_capacity_pages Configured buffer-pool capacity.\n");
        out.push_str("# TYPE prix_bufferpool_capacity_pages gauge\n");
        out.push_str(&format!("prix_bufferpool_capacity_pages {capacity}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_counters() {
        let m = Metrics::new();
        m.record(Endpoint::Query, 200, Duration::from_micros(300));
        m.record(Endpoint::Query, 200, Duration::from_micros(700));
        m.record(Endpoint::Query, 400, Duration::from_micros(50));
        m.record_rejected();
        assert_eq!(m.requests_for(Endpoint::Query, 200), 2);
        assert_eq!(m.requests_for(Endpoint::Query, 400), 1);
        assert_eq!(m.requests_for(Endpoint::Batch, 200), 0);

        let text = m.render(
            IoSnapshot::default(),
            3,
            16,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(
            text.contains(r#"prix_http_requests_total{endpoint="query",code="200"} 2"#),
            "{text}"
        );
        assert!(
            text.contains(r#"prix_http_requests_total{endpoint="query",code="400"} 1"#),
            "{text}"
        );
        assert!(text.contains("prix_http_rejected_total 1"), "{text}");
        assert!(text.contains("prix_bufferpool_hit_ratio 1"), "{text}");
        assert!(text.contains("prix_bufferpool_resident_pages 3"), "{text}");
        assert!(text.contains("prix_bufferpool_capacity_pages 16"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let m = Metrics::new();
        // 300 µs lands in the 500 µs bucket; 10 s overflows into +Inf.
        m.record(Endpoint::Query, 200, Duration::from_micros(300));
        m.record(Endpoint::Query, 200, Duration::from_secs(10));
        let text = m.render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(
            text.contains(r#"bucket{endpoint="query",le="0.00025"} 0"#),
            "{text}"
        );
        assert!(
            text.contains(r#"bucket{endpoint="query",le="0.0005"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"bucket{endpoint="query",le="2.5"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"bucket{endpoint="query",le="+Inf"} 2"#),
            "{text}"
        );
        assert!(
            text.contains(r#"duration_seconds_count{endpoint="query"} 2"#),
            "{text}"
        );
        // Endpoints with no traffic emit no histogram series.
        assert!(!text.contains(r#"bucket{endpoint="batch""#), "{text}");
    }

    #[test]
    fn ingest_series_render_with_pinned_names() {
        let m = Metrics::new();
        m.record_ingest(3, 1);
        m.record_ingest(0, 2);
        m.record_ingest_shed();
        assert_eq!(m.ingest_documents(), 3);
        assert_eq!(m.ingest_batches(), 2);
        assert_eq!(m.ingest_rejected(), 4);
        let text = m.render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            17,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(text.contains("prix_engine_epoch 17"), "{text}");
        assert!(text.contains("prix_ingest_documents_total 3"), "{text}");
        assert!(text.contains("prix_ingest_batches_total 2"), "{text}");
        assert!(text.contains("prix_ingest_rejected_total 4"), "{text}");
    }

    #[test]
    fn segment_series_render_with_pinned_names() {
        let m = Metrics::new();
        m.record_compaction();
        m.record_compaction();
        assert_eq!(m.compactions(), 2);
        let gauges = EngineGauges {
            generation: 3,
            segment_tiers: 2,
            segment_docs: 450,
            mutable_docs: 7,
            pinned_epochs: 4,
            pinned_oldest_lag: 2,
            seg_block_reads: 100,
            seg_block_fetches: 25,
            ..EngineGauges::default()
        };
        let text = m.render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            gauges,
        );
        assert!(text.contains("prix_engine_pinned_epochs 4"), "{text}");
        assert!(text.contains("prix_engine_pinned_oldest_lag 2"), "{text}");
        assert!(text.contains("prix_engine_generation 3"), "{text}");
        assert!(text.contains("prix_segment_tiers 2"), "{text}");
        assert!(text.contains("prix_segment_docs 450"), "{text}");
        assert!(text.contains("prix_engine_mutable_docs 7"), "{text}");
        assert!(
            text.contains("prix_segment_block_reads_total 100"),
            "{text}"
        );
        assert!(
            text.contains("prix_segment_block_fetches_total 25"),
            "{text}"
        );
        assert!(text.contains("prix_compactions_total 2"), "{text}");
    }

    #[test]
    fn valix_series_render_with_pinned_names() {
        let m = Metrics::new();
        m.record_valix(2, 15, 9, 1);
        m.record_valix(1, 5, 0, 0);
        let text = m.render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(text.contains("prix_valix_probes_total 3"), "{text}");
        assert!(text.contains("prix_valix_postings_total 20"), "{text}");
        assert!(text.contains("prix_valix_pred_skipped_total 9"), "{text}");
        assert!(text.contains("prix_valix_pred_rejected_total 1"), "{text}");
        // Zero-valued series still render for predicate-free servers.
        let fresh = Metrics::new().render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(fresh.contains("prix_valix_probes_total 0"), "{fresh}");
    }

    #[test]
    fn hit_ratio_reflects_io_snapshot() {
        let m = Metrics::new();
        let io = IoSnapshot {
            logical_reads: 10,
            physical_reads: 2,
            ..IoSnapshot::default()
        };
        let text = m.render(
            io,
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(text.contains("prix_bufferpool_hit_ratio 0.8"), "{text}");
        assert!(
            text.contains("prix_bufferpool_logical_reads_total 10"),
            "{text}"
        );
        assert!(
            text.contains("prix_bufferpool_physical_reads_total 2"),
            "{text}"
        );
    }

    /// README.md's `/metrics` table and the exposition list the same
    /// series with the same types. A table row is
    /// ``| `prix_name` | type | meaning |``.
    #[test]
    fn readme_metrics_table_matches_the_exposition() {
        use std::collections::BTreeSet;
        let text = Metrics::new().render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        let emitted: BTreeSet<(String, String)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE prix_"))
            .filter_map(|l| l.split_once(' '))
            .map(|(name, kind)| (format!("prix_{name}"), kind.to_string()))
            .collect();
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).expect("README.md at the workspace root");
        let documented: BTreeSet<(String, String)> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `prix_"))
            .filter_map(|l| l.split_once("` | "))
            .filter_map(|(name, rest)| Some((name, rest.split_once(" | ")?.0)))
            .map(|(name, kind)| (format!("prix_{name}"), kind.to_string()))
            .collect();
        assert!(emitted.len() > 40, "exposition lost its TYPE lines: {text}");
        let undocumented: Vec<_> = emitted.difference(&documented).collect();
        let stale: Vec<_> = documented.difference(&emitted).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "README.md /metrics table is out of step with Metrics::render\n\
             emitted but not in README: {undocumented:?}\n\
             in README but not emitted: {stale:?}"
        );
    }

    #[test]
    fn durability_series_render_with_and_without_recovery() {
        let m = Metrics::new();
        let io = IoSnapshot {
            fsyncs: 7,
            wal_appends: 5,
            checkpoints: 2,
            flush_errors: 1,
            ..IoSnapshot::default()
        };
        let rec = RecoveryReport {
            unclean_shutdown: true,
            replayed_frames: 12,
            replayed_pages: 9,
            wal_bytes: 4096,
            log_len: 4120,
        };
        let gauges = EngineGauges {
            wal_bytes: 8240,
            log_resident_pages: 3,
            ..EngineGauges::default()
        };
        let text = m.render(
            io,
            0,
            0,
            0,
            Some(rec),
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            gauges,
        );
        assert!(text.contains("prix_bufferpool_fsyncs_total 7"), "{text}");
        assert!(text.contains("prix_checkpoints_total 2"), "{text}");
        assert!(text.contains("prix_wal_bytes 8240"), "{text}");
        assert!(
            text.contains("prix_bufferpool_log_resident_pages 3"),
            "{text}"
        );
        assert!(
            text.contains("prix_bufferpool_wal_appends_total 5"),
            "{text}"
        );
        assert!(
            text.contains("prix_bufferpool_flush_errors_total 1"),
            "{text}"
        );
        assert!(text.contains("prix_recovery_unclean_shutdown 1"), "{text}");
        assert!(text.contains("prix_recovery_replayed_frames 12"), "{text}");
        assert!(text.contains("prix_recovery_replayed_pages 9"), "{text}");
        assert!(text.contains("prix_recovery_wal_bytes 4096"), "{text}");
        // Legacy databases (no recovery report) still emit every
        // series, as zeros — dashboards never see them vanish.
        let text = m.render(
            IoSnapshot::default(),
            0,
            0,
            0,
            None,
            0,
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            EngineGauges::default(),
        );
        assert!(text.contains("prix_bufferpool_fsyncs_total 0"), "{text}");
        assert!(text.contains("prix_recovery_unclean_shutdown 0"), "{text}");
        assert!(text.contains("prix_recovery_replayed_frames 0"), "{text}");
    }
}
