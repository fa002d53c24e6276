//! The PRIX HTTP query server.
//!
//! One [`Server`] owns a [`PrixEngine`] and serves it over hand-rolled
//! HTTP/1.1 (`std::net` only — the workspace is hermetic):
//!
//! | Endpoint          | Meaning                                        |
//! |-------------------|------------------------------------------------|
//! | `GET /query`      | one twig query (`xp=`, `unordered=1`, `limit=`)|
//! | `POST /batch`     | newline-delimited XPaths via `query_batch`     |
//! | `POST /documents` | online ingest (requires `ServerConfig::ingest`)|
//! | `GET /explain`    | the optimizer's plan for `xp=` (debug)         |
//! | `GET /healthz`    | liveness probe                                 |
//! | `GET /metrics`    | Prometheus text exposition                     |
//! | `POST /shutdown`  | request graceful shutdown                      |
//!
//! **Threading model.** A dedicated accept thread feeds accepted
//! connections into a bounded [`WorkerPool`] queue; each worker handles
//! one connection end to end, looping over requests (HTTP/1.1
//! keep-alive with pipelining) until the client closes, asks for
//! `Connection: close`, idles past [`ServerConfig::idle_timeout`], or
//! hits [`ServerConfig::max_requests_per_conn`]. Admission control is
//! fail-fast: a full queue or the connection cap turns into an
//! immediate `503` + `Retry-After`, never an unbounded backlog.
//!
//! **Caching.** Two epoch-keyed caches (see [`crate::cache`]) sit in
//! front of the executor: a plan cache (XPath → parsed twig,
//! invalidated only by symbol-table growth) and a sharded LRU result
//! cache keyed by `(query, options, epoch)` whose entries are purged
//! the moment an ingest publishes a new epoch — cached responses are
//! bit-identical to live evaluation and can never be stale.
//!
//! **Snapshot isolation.** The engine lives in a [`SharedEngine`]:
//! every request takes the current [`EngineSnapshot`] (an `Arc` clone)
//! and parses *and* executes against that frozen, epoch-pinned view —
//! no symbol-table lock, no torn reads while an ingest is in flight.
//! `POST /documents` goes through the shared writer: it validates the
//! batch, commits it with one batch-log record, and atomically
//! publishes the next epoch; a second concurrent ingest is shed with
//! `503` instead of queueing. Responses report the `epoch` they
//! executed at so clients can reason about staleness.
//!
//! **Shutdown.** `POST /shutdown` (or [`ServerHandle::shutdown`]) only
//! *signals*; the thread blocked in [`ServerHandle::wait`] then stops
//! the accept loop, lets the workers drain every queued and in-flight
//! request, flushes the engine's buffer pool, and returns.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prix_core::plan::EngineChoice;
use prix_core::{EngineSnapshot, ExecOpts, PrixEngine, QueryOutcome, SharedEngine, TwigQuery};

use crate::alts::{AltCache, SnapshotAlts};
use crate::cache::{PlanCache, ResultCache, ResultKey};
use crate::http::{read_request, HttpError, Request, Response};
use crate::json::JsonWriter;
use crate::metrics::{Endpoint, Metrics, Sample, Stage};
use crate::workers::{QueueProbe, WorkerPool};

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the CLI exposes the interesting ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads handling requests. Clamped to >= 1.
    pub threads: usize,
    /// Bounded queue of accepted-but-unserved connections. Clamped to
    /// >= 1; when full, new connections get `503`.
    pub queue_depth: usize,
    /// Cap on connections being handled at once (in a worker or in the
    /// queue). Beyond it, new connections get `503`.
    pub max_connections: usize,
    /// Threads used by `POST /batch` through `query_batch` (the `threads=`
    /// query parameter can lower it per request).
    pub batch_threads: usize,
    /// Socket read timeout (a stalled client gets `408` and is cut).
    pub read_timeout: Duration,
    /// Socket write timeout (a non-draining client is cut).
    pub write_timeout: Duration,
    /// Default cap on embeddings returned per query (`limit=` overrides,
    /// `limit=0` means unlimited). The total count is always reported.
    pub match_limit: usize,
    /// Whether `POST /documents` is enabled. Off by default: a serving
    /// replica should not silently accept writes.
    pub ingest: bool,
    /// How long a kept-alive connection may sit idle between requests
    /// before the worker closes it and moves on. Bounds how long a
    /// quiet client can pin a worker.
    pub idle_timeout: Duration,
    /// Requests served down one connection before the server forces
    /// `Connection: close`. Bounds pipelining and guarantees even a
    /// maximally chatty client periodically releases its worker.
    pub max_requests_per_conn: usize,
    /// Entries in the epoch-keyed result cache shared by `/query` and
    /// `/batch`. 0 disables result caching.
    pub result_cache_entries: usize,
    /// Entries in the plan cache (XPath string → parsed twig,
    /// invalidated only by symbol-table growth).
    pub plan_cache_entries: usize,
    /// Compact once the mutable delta reaches this many documents
    /// (checked after each ingest publish). `None` disables automatic
    /// compaction; `prix compact` always works offline.
    pub compact_after: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            queue_depth: 64,
            max_connections: 256,
            batch_threads: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            match_limit: 1000,
            ingest: false,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            result_cache_entries: 4096,
            plan_cache_entries: 1024,
            compact_after: None,
        }
    }
}

/// Level-triggered shutdown latch: request once, observed by the
/// accept loop and awaited by [`ServerHandle::wait`].
#[derive(Default)]
struct ShutdownSignal {
    requested: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownSignal {
    fn request(&self) {
        let mut r = self.requested.lock().unwrap_or_else(|e| e.into_inner());
        *r = true;
        self.cv.notify_all();
    }

    fn is_requested(&self) -> bool {
        *self.requested.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait(&self) {
        let mut r = self.requested.lock().unwrap_or_else(|e| e.into_inner());
        while !*r {
            r = self.cv.wait(r).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// State shared by the accept loop and every worker.
struct Shared {
    /// Snapshot-isolated engine: readers take the published snapshot,
    /// `POST /documents` goes through the single writer.
    engine: SharedEngine,
    metrics: Metrics,
    cfg: ServerConfig,
    shutdown: ShutdownSignal,
    /// Connections accepted and not yet finished (queued or in a worker).
    active_conns: AtomicUsize,
    queue: QueueProbe,
    /// XPath string → parsed twig, invalidated by symbol-table growth.
    plan_cache: PlanCache,
    /// `(query, opts, epoch)` → serialized 200 body; entries from
    /// superseded epochs are purged by the engine's publish hook.
    result_cache: Arc<ResultCache>,
    /// Per-epoch ViST/TwigStack substrates for the router's
    /// alternative engines.
    alt_cache: AltCache,
}

/// Decrements the accepted-connection count on drop, whatever path the
/// connection takes (served, rejected, errored).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The serving subsystem. See the module docs for the architecture.
pub struct Server;

/// A running server: its bound address plus the handles needed to wait
/// for and perform graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    accept: Option<JoinHandle<()>>,
    shed: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the accept thread and worker pool, and
    /// returns immediately. The engine is consumed: the server is its
    /// sole owner for its lifetime.
    pub fn start(engine: PrixEngine, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::new(cfg.threads, cfg.queue_depth));
        let result_cache = Arc::new(ResultCache::new(cfg.result_cache_entries));
        let engine = SharedEngine::new(engine);
        // Every publish orphans all older-epoch results; purge them the
        // moment the new snapshot is visible so capacity is never
        // squatted by entries no key will ever match again.
        let hook_cache = Arc::clone(&result_cache);
        engine.set_on_publish(move |epoch| hook_cache.purge_older_than(epoch));
        let shared = Arc::new(Shared {
            engine,
            metrics: Metrics::new(),
            plan_cache: PlanCache::new(cfg.plan_cache_entries),
            result_cache,
            alt_cache: AltCache::new(),
            cfg,
            shutdown: ShutdownSignal::default(),
            active_conns: AtomicUsize::new(0),
            queue: pool.probe(),
        });
        // Rejected connections are answered off the accept thread so a
        // flood of them cannot stall `accept`; the bounded channel is
        // backpressure on the backpressure — when even the shed thread
        // is behind, excess connections are dropped outright.
        let (shed_tx, shed_rx) = mpsc::sync_channel::<TcpStream>(64);
        let shed = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("prix-http-shed".to_string())
                .spawn(move || shed_loop(&shed_rx, &shared))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("prix-http-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &pool, &shed_tx))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            pool,
            accept: Some(accept),
            shed: Some(shed),
        })
    }
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry (tests assert against it).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Signals shutdown without tearing down (what `POST /shutdown`
    /// does internally). A thread in [`ServerHandle::wait`] proceeds.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.request();
    }

    /// Blocks until shutdown is requested (by `POST /shutdown` or
    /// [`ServerHandle::request_shutdown`]), then tears down gracefully:
    /// stops accepting and drains queued and in-flight requests. (Every
    /// acknowledged ingest is in the batch log already: there is nothing
    /// left to write.)
    pub fn wait(mut self) -> io::Result<()> {
        self.shared.shutdown.wait();
        self.finish()
    }

    /// Requests shutdown and tears down gracefully (see
    /// [`ServerHandle::wait`]).
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.shutdown.request();
        self.finish()
    }

    fn finish(&mut self) -> io::Result<()> {
        // Wake the accept loop: it checks the shutdown flag after
        // every accept, so one throwaway connection unblocks it.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept thread owned the shed sender; with it gone the
        // shed thread drains its channel and exits.
        if let Some(t) = self.shed.take() {
            let _ = t.join();
        }
        self.pool.shutdown();
        Ok(())
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
    shed_tx: &mpsc::SyncSender<TcpStream>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.is_requested() {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.is_requested() {
            return;
        }
        let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
        let _ = stream.set_nodelay(true);

        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        let guard = ConnGuard(Arc::clone(shared));
        let accepted = shared.active_conns.load(Ordering::Relaxed);

        // Admission control. The queue-fullness check is race-free
        // because this thread is the only producer: workers only ever
        // shrink the queue.
        if accepted > shared.cfg.max_connections || shared.queue.depth() >= pool.queue_capacity() {
            shared.metrics.record_rejected();
            // Best-effort 503 off-thread; a full shed channel means the
            // connection is simply dropped.
            let _ = shed_tx.try_send(stream);
            drop(guard);
            continue;
        }
        let job_shared = Arc::clone(shared);
        let enqueued = pool.try_execute(move || {
            handle_connection(stream, &job_shared);
            drop(guard);
        });
        // Only possible once shutdown flipped the queue closed;
        // dropping the job closes the connection, which is fine
        // mid-shutdown. (The guard inside the job decrements.)
        if enqueued.is_err() {
            return;
        }
    }
}

/// Answers admission-control rejections with `503` + `Retry-After`.
///
/// Runs on its own thread so the accept loop never does socket I/O.
/// The write-then-drain order matters: closing a socket with unread
/// data in its receive buffer sends RST, and Linux then discards the
/// client's receive buffer — the 503 would vanish. Writing first,
/// half-closing, and draining until the client's EOF (bounded by the
/// read timeout) delivers the response reliably.
fn shed_loop(rx: &mpsc::Receiver<TcpStream>, shared: &Arc<Shared>) {
    while let Ok(mut stream) = rx.recv() {
        let start = Instant::now();
        let resp = Response::new(503)
            .header("Retry-After", "1")
            .json(r#"{"error":"server saturated, retry later"}"#);
        if resp.write_to(&mut stream).is_ok() {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            let mut sink = [0u8; 4096];
            let mut drained = 0usize;
            while let Ok(n) = stream.read(&mut sink) {
                if n == 0 {
                    break;
                }
                drained += n;
                if drained > 64 * 1024 {
                    break;
                }
            }
        }
        shared.metrics.record(Endpoint::Other, 503, start.elapsed());
    }
}

/// Serves one connection end to end: a keep-alive loop reading
/// requests off one socket until the client closes, asks for close,
/// errors, idles past [`ServerConfig::idle_timeout`], or hits the
/// per-connection request cap. Responses go back in request order, so
/// pipelined clients (several requests in flight on one socket) just
/// work — the loop reads the next request from the `BufReader`'s
/// buffered bytes without waiting for the previous response to be
/// acknowledged.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        // Wait for the next request's first byte under the idle
        // timeout (for the first request the accept loop's read
        // timeout is still in force — a fresh connection gets the
        // same grace it always did). An idle expiry between requests
        // is a normal keep-alive close, not an error.
        if served > 0 {
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(shared.cfg.idle_timeout));
            match reader.fill_buf() {
                Ok([]) => break, // clean EOF between requests
                Ok(_) => {}      // next request has started
                Err(_) => break, // idle timeout or dead socket
            }
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(shared.cfg.read_timeout));
        }
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                served += 1;
                let head_only = req.method == "HEAD";
                let start = Instant::now();
                let (endpoint, resp) = route(&req, shared);
                let elapsed = start.elapsed();
                shared.metrics.record(endpoint, resp.status(), elapsed);
                // The server closes when the client asks to, when the
                // per-connection cap is reached, and during shutdown —
                // checked *after* routing so `POST /shutdown` closes
                // its own connection instead of idling a worker.
                let keep_alive = req.wants_keep_alive()
                    && served < shared.cfg.max_requests_per_conn
                    && !shared.shutdown.is_requested();
                if resp
                    .write_to_conn(&mut writer, keep_alive, head_only)
                    .is_err()
                    || !keep_alive
                {
                    break;
                }
            }
            Ok(None) => break,              // client went away between requests
            Err(HttpError::Io(_)) => break, // connection died; nothing to answer
            Err(e) => {
                // A request we could not fully parse leaves the stream
                // in an unknown state (where does the next request
                // start?), so after answering, the connection must
                // close — keeping it alive would be a desync vector.
                let start = Instant::now();
                let resp = Response::new(e.status()).json(error_json(&e.detail()));
                shared
                    .metrics
                    .record(Endpoint::Other, e.status(), start.elapsed());
                let _ = resp.write_to(&mut writer);
                break;
            }
        }
    }
    let _ = writer.flush();
    // Half-close and drain leftover request bytes (e.g. the body we
    // refused with 413) before dropping: closing with unread data in
    // the receive buffer would RST the response away (see shed_loop).
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = writer.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while let Ok(n) = reader.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > 64 * 1024 {
            break;
        }
    }
}

fn error_json(detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.obj().key("error").str_val(detail).end_obj();
    w.finish()
}

fn route(req: &Request, shared: &Arc<Shared>) -> (Endpoint, Response) {
    // HEAD is GET without the body: it routes identically and the
    // connection loop suppresses the body bytes (but not the true
    // Content-Length) when writing.
    let method = if req.method == "HEAD" {
        "GET"
    } else {
        req.method.as_str()
    };
    match (method, req.path.as_str()) {
        ("GET", "/healthz") => (Endpoint::Healthz, Response::new(200).text("ok\n")),
        ("GET", "/metrics") => (Endpoint::Metrics, handle_metrics(shared)),
        ("GET", "/query") => (Endpoint::Query, handle_query(req, shared)),
        ("GET", "/explain") => (Endpoint::Explain, handle_explain(req, shared)),
        ("POST", "/batch") => (Endpoint::Batch, handle_batch(req, shared)),
        ("POST", "/documents") => (Endpoint::Documents, handle_documents(req, shared)),
        ("POST", "/shutdown") => {
            shared.shutdown.request();
            (
                Endpoint::Shutdown,
                Response::new(200).text("shutting down\n"),
            )
        }
        (_, "/healthz" | "/metrics" | "/query" | "/explain") => (
            Endpoint::Other,
            Response::new(405)
                .header("Allow", "GET")
                .json(error_json("method not allowed")),
        ),
        (_, "/batch" | "/shutdown" | "/documents") => (
            Endpoint::Other,
            Response::new(405)
                .header("Allow", "POST")
                .json(error_json("method not allowed")),
        ),
        (_, path) => (
            Endpoint::Other,
            Response::new(404).json(error_json(&format!("no such endpoint: {path}"))),
        ),
    }
}

fn handle_metrics(shared: &Arc<Shared>) -> Response {
    let pool = shared.engine.pool();
    let snap = shared.engine.snapshot();
    let (pinned, oldest) = shared.engine.pinned_epochs();
    let seg_io = shared.engine.seg_io().snapshot();
    let body = shared.metrics.render(&Sample {
        io: pool.snapshot(),
        resident: pool.resident() as u64,
        capacity: pool.capacity() as u64,
        queue_depth: shared.queue.depth() as u64,
        recovery: shared.engine.recovery().unwrap_or_default(),
        epoch: snap.epoch(),
        plan_cache: shared.plan_cache.snapshot(),
        result_cache: shared.result_cache.snapshot(),
        generation: snap.generation(),
        segment_tiers: snap.segment_tiers() as u64,
        segment_docs: snap.segment_docs(),
        mutable_docs: snap.mutable_docs() as u64,
        // This handler's own snapshot holds one pin; don't report it.
        pinned_epochs: (pinned as u64).saturating_sub(1),
        pinned_oldest_lag: oldest.map_or(0, |o| snap.epoch().saturating_sub(o)),
        seg_block_reads: seg_io.seg_block_reads,
        seg_block_fetches: seg_io.seg_block_fetches,
        wal_bytes: snap.log_bytes(),
        log_records: snap.log_records(),
        log_compactions: shared.engine.log_compactions(),
    });
    Response::new(200).body(
        "text/plain; version=0.0.4; charset=utf-8",
        body.into_bytes(),
    )
}

/// Parses `xpath` against a snapshot's frozen symbol table, going
/// through the plan cache. The symbol table is append-only, so a plan
/// parsed at the same table length is identical to a fresh parse (see
/// [`PlanCache`]); parse errors are never cached — they are cheap and
/// would only pin garbage.
fn parse_plan(xpath: &str, snap: &EngineSnapshot, shared: &Shared) -> Result<TwigQuery, String> {
    let syms_len = snap.symbols().len();
    if let Some(q) = shared.plan_cache.get(xpath, syms_len) {
        return Ok(q);
    }
    match snap.parse_query(xpath) {
        Ok(q) => {
            shared.plan_cache.insert(xpath, syms_len, q.clone());
            Ok(q)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Extracts and parses `xp` (lock-free against the snapshot's frozen
/// symbol table; labels the snapshot has never seen simply match
/// nothing). `Err` is a ready `400` response.
fn parse_query_param(
    req: &Request,
    snap: &EngineSnapshot,
    shared: &Shared,
) -> Result<(String, TwigQuery), Response> {
    let xp = match req.param("xp") {
        Some(x) if !x.is_empty() => x.trim().to_string(),
        _ => {
            return Err(Response::new(400).json(error_json(
                "missing query parameter `xp` (the XPath expression)",
            )))
        }
    };
    match parse_plan(&xp, snap, shared) {
        Ok(q) => Ok((xp, q)),
        Err(e) => Err(Response::new(400).json(error_json(&format!("xpath error: {e}")))),
    }
}

/// Parses the `engine=` routing override. `Ok(None)` = cost-based
/// routing; `Err` is a ready `400`.
fn parse_engine_param(req: &Request) -> Result<Option<EngineChoice>, Response> {
    match req.param("engine") {
        None | Some("") => Ok(None),
        Some(s) => match EngineChoice::parse(s) {
            Some(c) => Ok(Some(c)),
            None => Err(Response::new(400).json(error_json(&format!(
                "bad `engine` parameter `{s}` (expected prix, prix_rp, prix_ep, vist, twigstack, or twigstackxb)"
            )))),
        },
    }
}

fn handle_query(req: &Request, shared: &Arc<Shared>) -> Response {
    let snap = shared.engine.snapshot();
    let (xp, q) = match parse_query_param(req, &snap, shared) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let unordered = matches!(req.param("unordered"), Some("1" | "true"));
    let forced = match parse_engine_param(req) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    if unordered && forced.is_some() {
        return Response::new(400).json(error_json(
            "`engine` cannot be combined with `unordered` (arrangement matching is PRIX-only)",
        ));
    }
    // The limit is pushed down into the executor: the trie descent
    // stops once enough distinct matches streamed out. `limit=0` asks
    // for everything; absent, the server's configured cap applies.
    let opts = match req.param("limit").map(str::parse::<usize>) {
        None => ExecOpts::new().with_limit(shared.cfg.match_limit),
        Some(Ok(0)) => ExecOpts::new(),
        Some(Ok(n)) => ExecOpts::new().with_limit(n),
        Some(Err(_)) => return Response::new(400).json(error_json("bad `limit` parameter")),
    };
    // The answer is a pure function of this key (the epoch pins the
    // snapshot), so a hit returns the exact bytes the first evaluation
    // produced — bit-identical to recomputing, including the epoch
    // reported inside the body.
    let key = ResultKey {
        query: xp.clone(),
        unordered,
        limit: opts.limit.map_or(u64::MAX, |n| n as u64),
        epoch: snap.epoch(),
        engine: req.param("engine").unwrap_or("").to_string(),
    };
    if let Some(body) = shared.result_cache.get(&key) {
        return Response::new(200).json(String::from(&*body));
    }
    let outcome = if unordered {
        snap.query_unordered_opts(&q, &opts)
    } else {
        let alts = SnapshotAlts {
            snap: &snap,
            cache: &shared.alt_cache,
        };
        snap.query_routed(&q, &opts, forced, &alts).map(|routed| {
            shared
                .metrics
                .record_planner(routed.report.chosen, routed.mispredicted);
            routed.outcome
        })
    };
    match outcome {
        Ok(out) => {
            record_stage_timings(shared, &out);
            let mut w = JsonWriter::new();
            w.obj();
            w.key("epoch").num(snap.epoch());
            outcome_json(&mut w, &xp, &out, true);
            w.end_obj();
            let body = w.finish();
            shared.result_cache.insert(key, Arc::from(body.as_str()));
            Response::new(200).json(body)
        }
        Err(e) => Response::new(400).json(error_json(&format!("query error: {e}"))),
    }
}

/// Feeds one outcome's per-stage executor timings into the [`Stage`]
/// histograms and its value-index counters into the `prix_valix_*`
/// series.
fn record_stage_timings(shared: &Arc<Shared>, out: &QueryOutcome) {
    shared
        .metrics
        .record_stage(Stage::Filter, out.stats.filter_time);
    shared
        .metrics
        .record_stage(Stage::Refine, out.stats.refine_time);
    shared
        .metrics
        .record_stage(Stage::Project, out.stats.project_time);
    shared.metrics.record_valix(
        out.stats.valix_probes,
        out.stats.valix_postings,
        out.stats.pred_skipped,
        out.stats.pred_rejected,
    );
}

fn handle_explain(req: &Request, shared: &Arc<Shared>) -> Response {
    let xp = match req.param("xp") {
        Some(x) if !x.is_empty() => x,
        _ => {
            return Response::new(400).json(error_json(
                "missing query parameter `xp` (the XPath expression)",
            ))
        }
    };
    match shared.engine.snapshot().explain(xp) {
        Ok(plan) => Response::new(200).text(plan),
        Err(e) => Response::new(400).json(error_json(&format!("explain error: {e}"))),
    }
}

fn handle_batch(req: &Request, shared: &Arc<Shared>) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::new(400).json(error_json("batch body is not UTF-8")),
    };
    let threads = match req.param("threads").map(str::parse::<usize>) {
        None => shared.cfg.batch_threads,
        Some(Ok(n)) => n.clamp(1, shared.cfg.batch_threads.max(1)),
        Some(Err(_)) => return Response::new(400).json(error_json("bad `threads` parameter")),
    };
    // Batches default to unlimited; `limit=N` pushes the same
    // per-query cap into every worker's executor.
    let opts = match req.param("limit").map(str::parse::<usize>) {
        None | Some(Ok(0)) => ExecOpts::new(),
        Some(Ok(n)) => ExecOpts::new().with_limit(n),
        Some(Err(_)) => return Response::new(400).json(error_json("bad `limit` parameter")),
    };
    let forced = match parse_engine_param(req) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let lines: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let snap = shared.engine.snapshot();
    // The normalized line list (trimmed, blanks dropped) is the batch's
    // cache identity: two bodies that normalize alike ask the same
    // questions in the same order.
    let key = ResultKey {
        query: lines.join("\n"),
        unordered: false,
        limit: opts.limit.map_or(u64::MAX, |n| n as u64),
        epoch: snap.epoch(),
        engine: req.param("engine").unwrap_or("").to_string(),
    };
    if let Some(cached) = shared.result_cache.get(&key) {
        return Response::new(200).json(String::from(&*cached));
    }
    let mut queries = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match parse_plan(line, &snap, shared) {
            Ok(q) => queries.push(q),
            Err(e) => {
                return Response::new(400)
                    .json(error_json(&format!("xpath error on line {}: {e}", i + 1)))
            }
        }
    }
    // A forced engine runs each query through the router (sequentially:
    // the alternative substrates are shared and the point of forcing is
    // comparison, not throughput); the default batch path keeps the
    // multi-threaded PRIX executor.
    let result = match forced {
        Some(choice) => {
            let alts = SnapshotAlts {
                snap: &snap,
                cache: &shared.alt_cache,
            };
            let mut outs = Vec::with_capacity(queries.len());
            let mut routed_err = None;
            for q in &queries {
                match snap.query_routed(q, &opts, Some(choice), &alts) {
                    Ok(routed) => {
                        shared
                            .metrics
                            .record_planner(routed.report.chosen, routed.mispredicted);
                        outs.push(routed.outcome);
                    }
                    Err(e) => {
                        routed_err = Some(e);
                        break;
                    }
                }
            }
            match routed_err {
                Some(e) => Err(e),
                None => Ok(outs),
            }
        }
        None => snap.query_batch_opts(&queries, threads, &opts),
    };
    match result {
        Ok(outs) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.key("epoch").num(snap.epoch());
            w.key("count").num(outs.len() as u64);
            w.key("results").arr();
            for (line, out) in lines.iter().zip(&outs) {
                record_stage_timings(shared, out);
                w.obj();
                // Batch responses report counts and costs per query;
                // embeddings are available one query at a time via
                // `GET /query`.
                outcome_json(&mut w, line, out, false);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
            let body = w.finish();
            shared.result_cache.insert(key, Arc::from(body.as_str()));
            Response::new(200).json(body)
        }
        Err(e) => Response::new(400).json(error_json(&format!("batch error: {e}"))),
    }
}

/// `POST /documents`: snapshot-isolated online ingest.
///
/// The body is one XML document, or — with `?split=1` — a wrapper
/// whose root's element children each become one document (the
/// batched form; one batch-log record for the whole body). Disabled
/// servers answer `403`; a body arriving while another ingest holds
/// the writer is shed with `503` + `Retry-After` instead of queueing.
/// The response reports the published `epoch`, the accepted document
/// ids, and per-document rejections (which leave the epoch alone when
/// nothing was accepted).
fn handle_documents(req: &Request, shared: &Arc<Shared>) -> Response {
    if !shared.cfg.ingest {
        return Response::new(403).json(error_json(
            "ingest is disabled; start the server with --ingest",
        ));
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s,
        Ok(_) => return Response::new(400).json(error_json("empty request body")),
        Err(_) => return Response::new(400).json(error_json("document body is not UTF-8")),
    };
    let split = matches!(req.param("split"), Some("1" | "true"));
    let result = if split {
        shared.engine.try_ingest_split(body)
    } else {
        shared.engine.try_ingest(&[body.to_string()])
    };
    match result {
        None => {
            shared.metrics.record_ingest_shed();
            Response::new(503)
                .header("Retry-After", "1")
                .json(error_json("another ingest is in progress, retry later"))
        }
        Some(Err(e)) => Response::new(500).json(error_json(&format!("ingest error: {e}"))),
        Some(Ok(report)) => {
            shared
                .metrics
                .record_ingest(report.accepted.len() as u64, report.rejected.len() as u64);
            maybe_compact(shared);
            let status = if report.accepted.is_empty() && !report.rejected.is_empty() {
                400
            } else {
                200
            };
            let mut w = JsonWriter::new();
            w.obj();
            w.key("epoch").num(report.epoch);
            w.key("accepted").num(report.accepted.len() as u64);
            w.key("ids").arr();
            for id in &report.accepted {
                w.num(*id as u64);
            }
            w.end_arr();
            w.key("rejected").arr();
            for (i, reason) in &report.rejected {
                w.obj();
                w.key("index").num(*i as u64);
                w.key("error").str_val(reason);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
            Response::new(status).json(w.finish())
        }
    }
}

/// Folds the mutable delta into a new segment generation when
/// `ServerConfig::compact_after` is set and the published snapshot's
/// delta has reached it. Runs on the ingesting worker's thread, after
/// its publish: readers keep serving their pinned snapshots throughout,
/// and a compaction failure poisons the writer exactly like a failed
/// ingest (refusing to limp on a half-swapped engine), so it is only
/// *reported* here, not swallowed.
fn maybe_compact(shared: &Arc<Shared>) {
    let threshold = match shared.cfg.compact_after {
        Some(n) => n,
        None => return,
    };
    if shared.engine.snapshot().mutable_docs() < threshold {
        return;
    }
    match shared.engine.compact() {
        Ok(Some(_)) => shared.metrics.record_compaction(),
        // Raced with another worker's compaction (delta already empty)
        // or the engine has no indexes; nothing to record.
        Ok(None) => {}
        // The writer is now poisoned; subsequent ingests answer 500.
        Err(_) => {}
    }
}

/// Writes the shared per-query fields (and optionally the embeddings)
/// into an already-open JSON object. `count` is the number of matches
/// actually returned by the executor; `truncated` reports whether the
/// limit stopped the trie descent before it was drained.
fn outcome_json(w: &mut JsonWriter, xpath: &str, out: &QueryOutcome, with_matches: bool) {
    w.key("xpath").str_val(xpath);
    w.key("index").str_val(&out.index_used.to_string());
    w.key("engine").str_val(out.engine.label());
    w.key("count").num(out.matches.len() as u64);
    w.key("elapsed_us")
        .num(out.elapsed.as_micros().min(u64::MAX as u128) as u64);
    w.key("io").obj();
    w.key("logical_reads").num(out.io.logical_reads);
    w.key("physical_reads").num(out.io.physical_reads);
    w.key("physical_writes").num(out.io.physical_writes);
    w.key("fsyncs").num(out.io.fsyncs);
    w.key("seg_block_reads").num(out.io.seg_block_reads);
    w.key("seg_block_fetches").num(out.io.seg_block_fetches);
    w.end_obj();
    w.key("stats").obj();
    w.key("range_queries").num(out.stats.range_queries);
    w.key("nodes_scanned").num(out.stats.nodes_scanned);
    w.key("maxgap_pruned").num(out.stats.maxgap_pruned);
    w.key("candidates").num(out.stats.candidates);
    w.key("refined").num(out.stats.refined);
    w.key("valix_probes").num(out.stats.valix_probes);
    w.key("valix_postings").num(out.stats.valix_postings);
    w.key("pred_skipped").num(out.stats.pred_skipped);
    w.key("pred_rejected").num(out.stats.pred_rejected);
    w.key("filter_us")
        .num(out.stats.filter_time.as_micros().min(u64::MAX as u128) as u64);
    w.key("refine_us")
        .num(out.stats.refine_time.as_micros().min(u64::MAX as u128) as u64);
    w.key("project_us")
        .num(out.stats.project_time.as_micros().min(u64::MAX as u128) as u64);
    w.end_obj();
    w.key("truncated").bool_val(out.truncated);
    if with_matches {
        w.key("matches").arr();
        for m in &out.matches {
            w.obj();
            w.key("doc").num(m.doc as u64);
            w.key("embedding").arr();
            for &p in &m.embedding {
                w.num(p as u64);
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
    }
}
