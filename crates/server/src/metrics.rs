//! Server metrics: request counters, latency histograms, and the
//! Prometheus text exposition rendered by `GET /metrics`.
//!
//! Everything on the hot path is a plain atomic — a request records
//! its outcome with two `fetch_add`s and never takes a lock. Only the
//! per-(endpoint, status) counter table uses a mutex, and that table
//! is touched once per request and is tiny.
//!
//! [`SERIES`] is the one place a series is declared: its name, type,
//! help text and where its value comes from. [`Metrics::render`] is a
//! loop over it, and the README table, the golden-exposition test and
//! the check of what `prixbench` scrapes all read it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use prix_core::plan::EngineId;
use prix_core::IndexKind;
use prix_storage::{IoSnapshot, RecoveryReport, CHECKPOINT_LOG_BYTES};

use crate::cache::CacheSnapshot;

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

/// The pipeline stages of the streaming query executor: the `stage`
/// label of the per-stage duration histogram.
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

    /// Appends the `_bucket`/`_sum`/`_count` lines of the family `name`
    /// for this histogram's label set; one that saw no observation
    /// renders nothing.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        if load(&self.total) == 0 {
            return;
        }
        let bounds = LATENCY_BUCKETS_US
            .iter()
            .map(|&us| (us as f64 / 1e6).to_string());
        let mut cum = 0u64;
        for (count, le) in self.counts.iter().zip(bounds.chain(["+Inf".to_string()])) {
            cum += load(count);
            out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
        }
        let sum = load(&self.sum_us) as f64 / 1e6;
        out.push_str(&format!(
            "{name}_sum{{{labels}}} {sum}\n{name}_count{{{labels}}} {cum}\n"
        ));
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// What one scrape reads from outside the registry: the engine, its
/// buffer pool, the worker queue and the query caches. `handle_metrics`
/// fills it once; every [`SERIES`] reader takes it from there.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sample {
    /// The engine's lifetime I/O counters: every buffer pool it has
    /// had, its batch logs and its tier readers count into one set,
    /// which no compaction resets.
    pub io: IoSnapshot,
    /// Pages currently cached in the buffer pool.
    pub resident: u64,
    /// The buffer pool's configured capacity in pages.
    pub capacity: u64,
    /// Connections waiting in the HTTP work queue.
    pub queue_depth: u64,
    /// What replaying the batch log did when the database was opened.
    /// All zeros for an engine built in this process: the series still
    /// render, so dashboards never see a metric vanish.
    pub recovery: RecoveryReport,
    /// The currently published snapshot epoch.
    pub epoch: u64,
    /// The plan cache's counters.
    pub plan_cache: CacheSnapshot,
    /// The result cache's counters.
    pub result_cache: CacheSnapshot,
    /// Segment generation of the published manifest (0 = never
    /// segmented).
    pub generation: u64,
    /// Immutable segment tiers currently serving reads.
    pub segment_tiers: u64,
    /// Documents served from immutable segments.
    pub segment_docs: u64,
    /// Blocks resident in the tiers' block caches, summed over the
    /// current tiers.
    pub segment_cache_blocks: u64,
    /// Documents in the mutable delta (what a compaction would fold).
    pub mutable_docs: u64,
    /// Published snapshots readers still hold, besides the current one
    /// (each pins its epoch, and the pool a compaction retired).
    pub pinned_epochs: u64,
    /// `published_epoch - oldest_pinned_epoch` (0 when nothing is
    /// pinned): how far behind the slowest reader is.
    pub pinned_oldest_lag: u64,
    /// Current length of the batch log in bytes.
    pub wal_bytes: u64,
    /// Records in the batch log (what a reopen now would replay).
    pub log_records: u64,
    /// Compactions the batch log's bound forced.
    pub log_compactions: u64,
}

/// The Prometheus type of a series family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone over the server's life.
    Counter,
    /// Sampled at scrape time.
    Gauge,
    /// `_bucket`/`_sum`/`_count` over [`LATENCY_BUCKETS_US`].
    Histogram,
}
use Kind::{Counter, Gauge};

impl Kind {
    /// The word on the family's `# TYPE` line.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter => "counter",
            Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Where a family's samples come from at scrape time.
#[derive(Clone, Copy)]
enum Read {
    /// One unlabelled sample, printed as it is exposed (integers, and
    /// the hit ratios in Rust's shortest round-trip float form).
    One(fn(&Metrics, &Sample) -> String),
    /// One sample per label set, each `key="value"[,key="value"]`.
    Many(fn(&Metrics, &Sample) -> Vec<(String, String)>),
    /// One histogram per value of the named label; silent ones are
    /// skipped.
    Histograms(
        &'static str,
        fn(&Metrics) -> Vec<(&'static str, &Histogram)>,
    ),
}
use Read::{Histograms, Many, One};

/// One series family of the exposition.
pub struct Series {
    /// The family name (`prix_*`), exactly as scraped.
    pub name: &'static str,
    /// Its Prometheus type.
    pub kind: Kind,
    /// The text of its `# HELP` line.
    pub help: &'static str,
    read: Read,
}

/// `key="label"` samples, in the order given.
fn labelled<'a, V: ToString>(
    key: &str,
    samples: impl Iterator<Item = (&'a str, V)>,
) -> Vec<(String, String)> {
    samples
        .map(|(label, v)| (format!("{key}=\"{label}\""), v.to_string()))
        .collect()
}

/// One sample per query cache, labelled `cache`.
fn per_cache<V: ToString>(s: &Sample, f: fn(&CacheSnapshot) -> V) -> Vec<(String, String)> {
    let caches = [("plan", &s.plan_cache), ("result", &s.result_cache)];
    labelled("cache", caches.into_iter().map(|(name, c)| (name, f(c))))
}

/// The indexes §5.6's rule chooses between, in exposition order: the
/// `engine` labels of the planner series.
const ROUTED: [IndexKind; 2] = [IndexKind::Regular, IndexKind::Extended];

/// Every series `GET /metrics` exposes, in exposition order: the single
/// declaration site of a series. Names, types and help text are a
/// dashboard contract (and `prixbench` scrapes some by name); every
/// family renders on every scrape, as zeros when idle, except that a
/// histogram without observations emits no sample lines. README.md's
/// `/metrics` table carries one row per entry.
#[rustfmt::skip]
pub const SERIES: &[Series] = &[
    Series { name: "prix_http_requests_total", kind: Counter, read: Many(|m, _| m.request_samples()),
        help: "Requests served, by endpoint and status code." },
    Series { name: "prix_http_rejected_total", kind: Counter, read: One(|m, _| m.rejected().to_string()),
        help: "Connections refused with 503 by admission control." },
    Series { name: "prix_http_connections_active", kind: Gauge, read: One(|m, _| load(&m.active).to_string()),
        help: "Connections currently being handled." },
    Series { name: "prix_http_queue_depth", kind: Gauge, read: One(|_, s| s.queue_depth.to_string()),
        help: "Connections waiting in the worker queue." },
    Series { name: "prix_http_request_duration_seconds", kind: Kind::Histogram,
        read: Histograms("endpoint", |m| Endpoint::ALL.iter().map(|e| e.label()).zip(&m.latency).collect()),
        help: "Request latency, by endpoint." },
    Series { name: "prix_query_stage_duration_seconds", kind: Kind::Histogram,
        read: Histograms("stage", |m| Stage::ALL.iter().map(|s| s.label()).zip(&m.stage).collect()),
        help: "Executor stage wall clock per query, by pipeline stage." },
    Series { name: "prix_engine_epoch", kind: Gauge, read: One(|_, s| s.epoch.to_string()),
        help: "The currently published snapshot epoch (advances once per ingest batch)." },
    Series { name: "prix_engine_pinned_epochs", kind: Gauge, read: One(|_, s| s.pinned_epochs.to_string()),
        help: "Reader pins currently holding an epoch open, across the live and all retired buffer pools." },
    Series { name: "prix_engine_pinned_oldest_lag", kind: Gauge, read: One(|_, s| s.pinned_oldest_lag.to_string()),
        help: "Epochs between the published epoch and the oldest pinned reader (0 when nothing is pinned)." },
    Series { name: "prix_engine_generation", kind: Gauge, read: One(|_, s| s.generation.to_string()),
        help: "Generation of the published manifest (1 after a build, one more per compaction)." },
    Series { name: "prix_segment_tiers", kind: Gauge, read: One(|_, s| s.segment_tiers.to_string()),
        help: "Immutable segment tiers currently serving reads." },
    Series { name: "prix_segment_docs", kind: Gauge, read: One(|_, s| s.segment_docs.to_string()),
        help: "Documents served from immutable segments." },
    Series { name: "prix_engine_mutable_docs", kind: Gauge, read: One(|_, s| s.mutable_docs.to_string()),
        help: "Documents in the mutable delta (what a compaction would fold into a segment)." },
    Series { name: "prix_segment_block_reads_total", kind: Counter, read: One(|_, s| s.io.seg_block_reads.to_string()),
        help: "Segment blocks served (cache hits + fetches)." },
    Series { name: "prix_segment_block_fetches_total", kind: Counter, read: One(|_, s| s.io.seg_block_fetches.to_string()),
        help: "Segment blocks read from disk." },
    Series { name: "prix_segment_block_evictions_total", kind: Counter, read: One(|_, s| s.io.seg_block_evictions.to_string()),
        help: "Segment blocks a fetch pushed out of a full tier block cache." },
    Series { name: "prix_segment_cache_blocks", kind: Gauge, read: One(|_, s| s.segment_cache_blocks.to_string()),
        help: "Segment blocks resident in the tier block caches, summed over the current tiers." },
    Series { name: "prix_compactions_total", kind: Counter, read: One(|m, _| load(&m.compactions).to_string()),
        help: "Compactions published (mutable delta folded into a segment)." },
    Series { name: "prix_planner_engine_chosen_total", kind: Counter,
        read: Many(|m, _| labelled("engine", ROUTED.iter().map(|&k| EngineId::from_kind(k).label()).zip(m.planner_chosen.iter().map(load)))),
        help: "Routed queries executed, by the index the paper's section 5.6 rule chose." },
    Series { name: "prix_valix_probes_total", kind: Counter, read: One(|m, _| load(&m.valix_probes).to_string()),
        help: "Value-index probes issued: one per probed predicate and one per value-run key an anchored value twig scans." },
    Series { name: "prix_valix_postings_total", kind: Counter, read: One(|m, _| load(&m.valix_postings).to_string()),
        help: "Value-index postings scanned across all probes, predicates' and anchors' alike." },
    Series { name: "prix_valix_pred_skipped_total", kind: Counter, read: One(|m, _| load(&m.valix_pred_skipped).to_string()),
        help: "Structural candidates skipped by the value-index pre-filter before refinement." },
    Series { name: "prix_valix_pred_rejected_total", kind: Counter, read: One(|m, _| load(&m.valix_pred_rejected).to_string()),
        help: "Refined matches rejected by positional predicate verification." },
    Series { name: "prix_ingest_documents_total", kind: Counter, read: One(|m, _| load(&m.ingest_documents).to_string()),
        help: "Documents accepted and published by POST /documents." },
    Series { name: "prix_ingest_batches_total", kind: Counter, read: One(|m, _| load(&m.ingest_batches).to_string()),
        help: "Ingest batches processed by the writer." },
    Series { name: "prix_ingest_rejected_total", kind: Counter, read: One(|m, _| load(&m.ingest_rejected).to_string()),
        help: "Documents refused by validation plus ingest requests shed while the writer was busy." },
    Series { name: "prix_cache_hits_total", kind: Counter, read: Many(|_, s| per_cache(s, |c| c.hits)),
        help: "Cache lookups answered from the cache, by cache." },
    Series { name: "prix_cache_misses_total", kind: Counter, read: Many(|_, s| per_cache(s, |c| c.misses)),
        help: "Cache lookups that fell through to a live evaluation, by cache." },
    Series { name: "prix_cache_evictions_total", kind: Counter, read: Many(|_, s| per_cache(s, |c| c.evictions)),
        help: "Entries removed by LRU pressure or epoch purges, by cache." },
    Series { name: "prix_cache_hit_ratio", kind: Gauge, read: Many(|_, s| per_cache(s, |c| c.hit_ratio())),
        help: "Lifetime cache hit ratio in [0,1], by cache." },
    Series { name: "prix_cache_entries", kind: Gauge, read: Many(|_, s| per_cache(s, |c| c.entries)),
        help: "Entries currently resident, by cache." },
    Series { name: "prix_bufferpool_logical_reads_total", kind: Counter, read: One(|_, s| s.io.logical_reads.to_string()),
        help: "Pages requested from the buffer pool." },
    Series { name: "prix_bufferpool_physical_reads_total", kind: Counter, read: One(|_, s| s.io.physical_reads.to_string()),
        help: "Page requests the buffer pool's LRU did not hold (the paper's Disk IO)." },
    Series { name: "prix_bufferpool_fsyncs_total", kind: Counter, read: One(|_, s| s.io.fsyncs.to_string()),
        help: "fsync barriers issued on the batch log: one per commit, one per log a compaction starts." },
    Series { name: "prix_bufferpool_wal_appends_total", kind: Counter, read: One(|_, s| s.io.wal_appends.to_string()),
        help: "Records appended to the batch log: one per commit." },
    Series { name: "prix_bufferpool_wal_appended_bytes_total", kind: Counter, read: One(|_, s| s.io.wal_appended_bytes.to_string()),
        help: "Bytes appended to the batch log: the ingested batches as received plus framing." },
    Series { name: "prix_log_compactions_total", kind: Counter, read: One(|_, s| s.log_compactions.to_string()),
        help: "Compactions forced by the batch log reaching its bound." },
    Series { name: "prix_wal_bytes", kind: Gauge, read: One(|_, s| s.wal_bytes.to_string()),
        help: "Current length of the batch log in bytes (what a reopen now would read)." },
    Series { name: "prix_log_records", kind: Gauge, read: One(|_, s| s.log_records.to_string()),
        help: "Records in the batch log (what a reopen now would replay)." },
    Series { name: "prix_log_bound_bytes", kind: Gauge, read: One(|_, _| CHECKPOINT_LOG_BYTES.to_string()),
        help: "Length at which the batch log is folded into a tier by a compaction." },
    Series { name: "prix_recovery_unclean_shutdown", kind: Gauge, read: One(|_, s| u64::from(s.recovery.unclean_shutdown).to_string()),
        help: "1 if the batch log ended in a torn record when the database was opened." },
    Series { name: "prix_recovery_replayed_frames", kind: Gauge, read: One(|_, s| s.recovery.replayed_frames.to_string()),
        help: "Batch-log records replayed when the database was opened." },
    Series { name: "prix_recovery_replayed_documents", kind: Gauge, read: One(|_, s| s.recovery.replayed_documents.to_string()),
        help: "Documents the replay indexed when the database was opened." },
    Series { name: "prix_recovery_wal_bytes", kind: Gauge, read: One(|_, s| s.recovery.wal_bytes.to_string()),
        help: "Batch-log bytes read by the replay when the database was opened." },
    Series { name: "prix_bufferpool_hit_ratio", kind: Gauge, read: One(|_, s| s.io.hit_ratio().to_string()),
        help: "Lifetime buffer-pool hit ratio in [0,1]." },
    Series { name: "prix_bufferpool_resident_pages", kind: Gauge, read: One(|_, s| s.resident.to_string()),
        help: "Pages currently cached." },
    Series { name: "prix_bufferpool_capacity_pages", kind: Gauge, read: One(|_, s| s.capacity.to_string()),
        help: "Configured buffer-pool capacity." },
];

/// The server's metric registry. One instance lives in the shared
/// server state; every handler records into it.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(endpoint, status) -> requests`, in exposition order. Status
    /// cardinality is tiny (the server emits ~8 distinct codes), so one
    /// locked map is fine.
    requests: Mutex<BTreeMap<(usize, u16), u64>>,
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
    /// Routed queries executed, by the index §5.6's rule chose (in
    /// [`ROUTED`] order).
    planner_chosen: [AtomicU64; ROUTED.len()],
    /// Value-index probes issued: one per probed predicate and one per value-run key an anchored value twig scans.
    valix_probes: AtomicU64,
    /// Value-index postings scanned across all probes, predicates' and anchors' alike.
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

    fn requests(&self) -> MutexGuard<'_, BTreeMap<(usize, u16), u64>> {
        self.requests.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let idx = endpoint.index();
        *self.requests().entry((idx, status)).or_insert(0) += 1;
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
        load(&self.rejected)
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

    /// Records one routed query execution on the index `ran`.
    pub fn record_planner(&self, ran: IndexKind) {
        let at = ROUTED
            .iter()
            .position(|&k| k == ran)
            .expect("ROUTED lists every index kind");
        self.planner_chosen[at].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one published compaction.
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

    /// Marks a connection as being handled; decremented by the guard.
    pub fn connection_opened(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Inverse of [`Metrics::connection_opened`].
    #[cfg(test)]
    fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests recorded for `(endpoint, status)` (for tests).
    pub fn requests_for(&self, endpoint: Endpoint, status: u16) -> u64 {
        let key = (endpoint.index(), status);
        self.requests().get(&key).copied().unwrap_or(0)
    }

    /// The request table as `endpoint`/`code` samples.
    fn request_samples(&self) -> Vec<(String, String)> {
        let sample = |(&(idx, status), n): (&(usize, u16), &u64)| {
            let endpoint = Endpoint::ALL[idx].label();
            let labels = format!("endpoint=\"{endpoint}\",code=\"{status}\"");
            (labels, n.to_string())
        };
        self.requests().iter().map(sample).collect()
    }

    /// Renders the Prometheus text exposition (format 0.0.4): every
    /// [`SERIES`] entry's `# HELP` and `# TYPE` lines, then its samples.
    pub fn render(&self, sample: &Sample) -> String {
        let mut out = String::with_capacity(4096);
        for series in SERIES {
            let (name, kind) = (series.name, series.kind.as_str());
            let help = series.help;
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            match series.read {
                One(f) => out.push_str(&format!("{name} {}\n", f(self, sample))),
                Many(f) => {
                    for (labels, v) in f(self, sample) {
                        out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                    }
                }
                Histograms(key, f) => {
                    for (label, h) in f(self) {
                        h.render(&mut out, name, &format!("{key}=\"{label}\""));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Source files of `dir` (relative to the workspace root), as text.
    fn sources(dir: &str) -> Vec<(String, String)> {
        let dir = format!("{}/../../{dir}", env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).unwrap();
                (path.display().to_string(), text)
            })
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no sources under {dir}");
        files
    }

    /// Every `prix_*` token of `text` that `keep` accepts the preceding
    /// character of.
    fn prix_tokens(text: &str, keep: fn(Option<char>) -> bool) -> Vec<&str> {
        text.match_indices("prix_")
            .filter(|&(at, _)| keep(text[..at].chars().next_back()))
            .map(|(at, _)| {
                let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
                let len = text[at..].find(|c| !word(c)).unwrap_or(text.len() - at);
                &text[at..at + len]
            })
            .collect()
    }

    /// The fixed state the golden exposition was rendered from: every
    /// recorder called, every rendered `Sample` field non-zero, two
    /// endpoints with two status codes each, both indexes.
    fn golden_state() -> (Metrics, Sample) {
        let m = Metrics::new();
        m.record(Endpoint::Query, 200, Duration::from_micros(300));
        m.record(Endpoint::Query, 200, Duration::from_micros(700));
        m.record(Endpoint::Query, 400, Duration::from_micros(50));
        m.record(Endpoint::Documents, 200, Duration::from_millis(12));
        m.record(Endpoint::Documents, 503, Duration::from_secs(10));
        m.record_stage(Stage::Filter, Duration::from_micros(180));
        m.record_stage(Stage::Refine, Duration::from_micros(2_500));
        m.record_stage(Stage::Project, Duration::from_micros(40));
        m.record_rejected();
        m.record_rejected();
        m.record_ingest(3, 1);
        m.record_ingest(0, 2);
        m.record_ingest_shed();
        m.record_compaction();
        m.record_compaction();
        for (n, kind) in ROUTED.into_iter().enumerate() {
            for _ in 0..=n {
                m.record_planner(kind);
            }
        }
        m.record_valix(2, 15, 9, 1);
        m.record_valix(1, 5, 0, 0);
        m.connection_opened();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let sample = Sample {
            io: IoSnapshot {
                logical_reads: 1000,
                physical_reads: 125,
                fsyncs: 7,
                wal_appends: 55,
                wal_appended_bytes: 45100,
                seg_block_reads: 100,
                seg_block_fetches: 25,
                seg_block_evictions: 9,
                ..IoSnapshot::default()
            },
            resident: 37,
            capacity: 64,
            queue_depth: 21,
            recovery: RecoveryReport {
                unclean_shutdown: true,
                replayed_frames: 12,
                replayed_documents: 9,
                wal_bytes: 4096,
                log_len: 4120,
            },
            epoch: 17,
            plan_cache: CacheSnapshot {
                hits: 30,
                misses: 10,
                evictions: 2,
                entries: 8,
            },
            result_cache: CacheSnapshot {
                hits: 1,
                misses: 2,
                evictions: 14,
                entries: 19,
            },
            generation: 3,
            segment_tiers: 2,
            segment_docs: 450,
            segment_cache_blocks: 140,
            mutable_docs: 6,
            pinned_epochs: 4,
            pinned_oldest_lag: 5,
            wal_bytes: 8240,
            log_records: 31,
            log_compactions: 2,
        };
        (m, sample)
    }

    /// Byte-identity with the hand-wired `render` this table replaced:
    /// `tests/metrics_golden*.txt` were written by that `render` (commit
    /// 2a0ffca) over the same recorded state and over a fresh registry;
    /// a series added since is three lines added to each by hand.
    /// They pin order, help text, types, label spelling, float
    /// formatting, the cumulative `+Inf`-terminated buckets, the
    /// silent-histogram rule and the all-zeros rendering of an engine
    /// without a recovery report.
    #[test]
    fn exposition_is_byte_identical_to_the_hand_wired_render() {
        let (m, sample) = golden_state();
        assert_eq!(
            m.render(&sample),
            include_str!("../tests/metrics_golden.txt")
        );
        assert_eq!(
            Metrics::new().render(&Sample::default()),
            include_str!("../tests/metrics_golden_zero.txt")
        );
        assert_eq!(m.requests_for(Endpoint::Query, 200), 2);
        assert_eq!(m.requests_for(Endpoint::Batch, 200), 0);
        assert_eq!(m.rejected(), 2);
    }

    /// One declaration site: `SERIES` names are unique, and each one is
    /// spelled exactly once in the crate's non-test source.
    #[test]
    fn each_series_name_is_declared_exactly_once() {
        let names: BTreeSet<&str> = SERIES.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SERIES.len(), "duplicate name in SERIES");
        let files = sources("crates/server/src");
        let spelled: Vec<&str> = files
            .iter()
            .map(|(_, text)| text.split("#[cfg(test)]").next().unwrap())
            .flat_map(|code| prix_tokens(code, |_| true))
            .collect();
        for name in names {
            let n = spelled.iter().filter(|t| **t == name).count();
            assert_eq!(n, 1, "{name} is spelled {n} times in crates/server/src");
        }
    }

    /// README.md's `/metrics` table carries one row per `SERIES` entry,
    /// with the same type. A table row is ``| `prix_name` | type | meaning |``.
    #[test]
    fn readme_metrics_table_matches_the_exposition() {
        let declared: BTreeSet<(&str, &str)> =
            SERIES.iter().map(|s| (s.name, s.kind.as_str())).collect();
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).expect("README.md at the workspace root");
        let documented: BTreeSet<(&str, &str)> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter(|l| l.starts_with("prix_"))
            .filter_map(|l| l.split_once("` | "))
            .filter_map(|(name, rest)| Some((name, rest.split_once(" | ")?.0)))
            .collect();
        let undocumented: Vec<_> = declared.difference(&documented).collect();
        let stale: Vec<_> = documented.difference(&declared).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "README.md /metrics table is out of step with metrics::SERIES\n\
             declared but not in README: {undocumented:?}\n\
             in README but not declared: {stale:?}"
        );
    }

    /// `prixbench` (BENCHMARK.json) scrapes `/metrics` by name and its
    /// sources are frozen: every series name in one of its string
    /// literals must be a `SERIES` family (a histogram's `_sum`,
    /// `_count` and `_bucket` samples included), so renaming one fails
    /// here rather than in the benchmark pipeline. The exceptions are
    /// the series this server retired on purpose that `prixbench` still
    /// names (`tests/retired_series.txt`, one a line): its scraper reads
    /// an absent series as 0. Such a name must stay out of `SERIES`, and
    /// leaves that list when `prixbench` stops naming it.
    #[test]
    fn every_series_prixbench_scrapes_is_declared() {
        let retired: Vec<&str> = include_str!("../tests/retired_series.txt")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let family = |name: &str| {
            SERIES.iter().any(|s| {
                let sample_of = |suffix| name.strip_suffix(suffix) == Some(s.name);
                s.name == name
                    || s.kind == Kind::Histogram
                        && ["_sum", "_count", "_bucket"].into_iter().any(sample_of)
            })
        };
        let mut scraped = BTreeSet::new();
        for (path, text) in sources("crates/bench/examples/prixbench/src") {
            for name in prix_tokens(&text, |before| before == Some('"')) {
                if retired.contains(&name) {
                    assert!(!family(name), "{name} is declared and listed as retired");
                    continue;
                }
                assert!(family(name), "{path} scrapes {name}, not in SERIES");
                scraped.insert(name.to_string());
            }
        }
        assert!(scraped.len() >= 10, "scraper not found: {scraped:?}");
    }
}
