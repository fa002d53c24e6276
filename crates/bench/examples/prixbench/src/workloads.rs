//! The three workloads, each reduced to the same [`Measured`] shape.

use std::collections::BTreeMap;
use std::path::Path;

use prix_core::EngineId;

use crate::client::Scrape;
use crate::clock::Clock;
use crate::data::{self, Class, FeedDoc, Oracle, QuerySpec};
use crate::query::{EngineSums, Lib, QueryRun};
use crate::setup::{self, BATCH_DOCS};
use crate::spec::{stage_class_metric, Workload};
use crate::stats::{self, ratio};
use crate::trace::{Recorder, Span};
use crate::wire::{self, Mix, Sample, Sent, WireRun};

/// A traced run spends this share of its seconds untraced, to price the
/// tracing.
const UNTRACED_SHARE: f64 = 0.3;

/// What a workload measured.
#[derive(Default)]
pub struct Measured {
    /// See `stats::Latency`.
    pub query_mid_us: f64,
    pub query_tail_us: f64,
    pub queries_per_s: f64,
    pub pages_per_query: f64,
    /// Operations attempted; failed ones include wrong answers.
    pub attempted: u64,
    pub failed: u64,
    /// Bytes of XML the workload ingested.
    pub ingested_bytes: u64,
    /// Per-layer values the workload yields (traced runs only).
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

/// Per-layer values every workload derives from engine outcomes.
fn engine_layers(sums: &EngineSums, out: &mut BTreeMap<String, f64>) {
    let per_query = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    out.insert(
        "core.filter.us".into(),
        per_query(sums.all.filter_ns, sums.all.queries),
    );
    out.insert(
        "core.refine.us".into(),
        per_query(sums.all.refine_ns, sums.all.queries),
    );
    out.insert(
        "core.project.us".into(),
        per_query(sums.all.project_ns, sums.all.queries),
    );
    for class in Class::ALL {
        let s = sums.by_class[class.index()];
        out.insert(
            stage_class_metric("filter", class),
            per_query(s.filter_ns, s.queries),
        );
        out.insert(
            stage_class_metric("refine", class),
            per_query(s.refine_ns, s.queries),
        );
        out.insert(
            stage_class_metric("project", class),
            per_query(s.project_ns, s.queries),
        );
    }
    out.insert(
        "core.filter.nodes_per_match".into(),
        ratio(sums.nodes_scanned as f64, sums.matches as f64),
    );
    out.insert(
        "core.filter.maxgap_prune_ratio".into(),
        ratio(sums.maxgap_pruned as f64, sums.nodes_scanned as f64),
    );
    out.insert(
        "core.filter.range_queries_per_query".into(),
        ratio(sums.range_queries as f64, sums.all.queries as f64),
    );
    out.insert(
        "core.refine.survive_ratio".into(),
        ratio(sums.refined as f64, sums.candidates as f64),
    );
    out.insert(
        "core.valix.postings_per_match".into(),
        ratio(sums.valix_postings as f64, sums.pred_matches as f64),
    );
    out.insert(
        "core.valix.skip_ratio".into(),
        ratio(
            sums.pred_skipped as f64,
            (sums.pred_skipped + sums.pred_candidates) as f64,
        ),
    );
}

/// `query_cold`.
pub fn query_cold(
    db: &Path,
    pool: &[QuerySpec],
    seconds: f64,
    traced: bool,
    clock: &Clock,
) -> Result<Measured, String> {
    let lib = Lib::open(db)?;
    // One untimed pass: brings the segment block caches to their steady
    // state and checks every answer.
    let mut warmup = QueryRun::default();
    lib.pass(pool, None, &mut warmup)?;

    let mut rec = Recorder::new();
    let (mut run, plain) = if traced {
        let plain = lib.run(pool, seconds * UNTRACED_SHARE, None)?;
        let run = lib.run(pool, seconds * (1.0 - UNTRACED_SHARE), Some(&mut rec))?;
        (run, Some(plain))
    } else {
        (lib.run(pool, seconds, None)?, None)
    };
    run.scale(clock);
    let untraced_qps = plain.map(|mut plain| {
        plain.scale(clock);
        plain.latency(pool.len()).per_s
    });

    let n = run.lat_us.len() as f64;
    let lat = run.latency(pool.len());
    let mut m = Measured {
        query_mid_us: lat.mid_us,
        query_tail_us: lat.tail_us,
        queries_per_s: lat.per_s,
        pages_per_query: run.sums.pages() as f64 / n,
        attempted: (warmup.lat_us.len() + run.lat_us.len()) as u64,
        failed: warmup.wrong + run.wrong,
        spans: rec.spans,
        ..Measured::default()
    };
    if let Some(untraced_qps) = untraced_qps {
        let l = &mut m.layers;
        engine_layers(&run.sums, l);
        let io = &run.sums.io;
        l.insert("storage.buffer.hit_ratio".into(), io.hit_ratio());
        l.insert(
            "storage.pager.reads_per_query".into(),
            io.physical_reads as f64 / n,
        );
        l.insert(
            "storage.segment.fetches_per_query".into(),
            io.seg_block_fetches as f64 / n,
        );
        l.insert(
            "storage.segment.cache_hit_ratio".into(),
            1.0 - ratio(io.seg_block_fetches as f64, io.seg_block_reads as f64),
        );
        l.insert(
            "trace_overhead_ratio".into(),
            ratio(lat.per_s, untraced_qps),
        );
        l.insert(
            "query_p99_us".into(),
            stats::percentile_of(&run.lat_us, 99.0),
        );
        l.insert("loadgen.clock_factor".into(), clock.median_factor());
    }
    Ok(m)
}

/// Difference of one series between the last and first reading.
fn delta(run: &WireRun, series: &str) -> f64 {
    run.last.get(series) - run.first.get(series)
}

fn delta_sum(first: &Scrape, last: &Scrape, name: &str) -> f64 {
    last.sum(name) - first.sum(name)
}

/// What both wire workloads report from the client's samples and the
/// server's `/metrics`.
fn wire_measured(run: &WireRun, mix: &Mix) -> Measured {
    let lat = run.closed.latency(mix.sequence.len());
    let pages = run.pool_physical_reads + delta(run, "prix_segment_block_fetches_total");
    Measured {
        query_mid_us: lat.mid_us,
        query_tail_us: lat.tail_us,
        queries_per_s: lat.per_s,
        pages_per_query: ratio(pages, run.measured_requests() as f64),
        attempted: run.requests,
        failed: run.failed + run.wrong,
        ..Measured::default()
    }
}

/// Per-layer values of a traced wire run: server counters, client
/// samples, and the in-process replay of the sampled requests.
fn wire_layers(
    db: &Path,
    pool: &[QuerySpec],
    mix: &Mix,
    mut run: WireRun,
    m: &mut Measured,
) -> Result<(), String> {
    // Every class is replayed at least once, sampled or not.
    for class in Class::ALL {
        let sampled = run.samples.iter().any(|s| match &s.sent {
            Sent::Query(i) => pool[*i].class == class,
            Sent::Batch(lines) => lines.iter().any(|&i| pool[i].class == class),
            Sent::Feed(_) => false,
        });
        if !sampled {
            let i = pool
                .iter()
                .position(|q| q.class == class)
                .expect("the pool holds every class");
            run.samples.push(Sample {
                request: u64::MAX - class.index() as u64,
                raw: mix.request_bytes()[i].clone(),
                sent: Sent::Query(i),
            });
        }
    }
    let mut rec = Recorder::new();
    let sums = crate::replay::replay(db, pool, &run.samples, &mut rec)?;
    crate::trace::append(&mut run.spans, rec.spans);

    let l = &mut m.layers;
    engine_layers(&sums, l);
    let requests = run.measured_requests() as f64;
    let seg_reads = delta(&run, "prix_segment_block_reads_total");
    let seg_fetches = delta(&run, "prix_segment_block_fetches_total");
    l.insert(
        "storage.buffer.hit_ratio".into(),
        1.0 - ratio(run.pool_physical_reads, run.pool_logical_reads),
    );
    l.insert(
        "storage.pager.reads_per_query".into(),
        ratio(run.pool_physical_reads, requests),
    );
    l.insert(
        "storage.segment.fetches_per_query".into(),
        ratio(seg_fetches, requests),
    );
    l.insert(
        "storage.segment.cache_hit_ratio".into(),
        1.0 - ratio(seg_fetches, seg_reads),
    );
    let chosen = delta_sum(&run.first, &run.last, "prix_planner_engine_chosen_total");
    for id in EngineId::ALL {
        let series = format!(
            "prix_planner_engine_chosen_total{{engine=\"{}\"}}",
            id.label()
        );
        l.insert(
            format!("core.plan.engine_share.{}", id.label()),
            ratio(delta(&run, &series), chosen),
        );
    }
    l.insert(
        "core.plan.mispredict_ratio".into(),
        ratio(delta(&run, "prix_planner_mispredict_total"), chosen),
    );
    l.insert(
        "core.compact.count".into(),
        delta(&run, "prix_compactions_total"),
    );
    for cache in ["result", "plan"] {
        let hits = delta(&run, &format!("prix_cache_hits_total{{cache=\"{cache}\"}}"));
        let misses = delta(
            &run,
            &format!("prix_cache_misses_total{{cache=\"{cache}\"}}"),
        );
        l.insert(
            format!("server.cache.{cache}_hit_ratio"),
            ratio(hits, hits + misses),
        );
    }
    let stage_s = delta_sum(
        &run.first,
        &run.last,
        "prix_query_stage_duration_seconds_sum",
    );
    let mut served_s = 0.0;
    let mut served = 0.0;
    for endpoint in ["query", "batch"] {
        let labels = format!("{{endpoint=\"{endpoint}\"}}");
        served_s += delta(
            &run,
            &format!("prix_http_request_duration_seconds_sum{labels}"),
        );
        served += delta(
            &run,
            &format!("prix_http_request_duration_seconds_count{labels}"),
        );
    }
    l.insert("server.engine_share".into(), ratio(stage_s, served_s));
    // What a request costs on the wire beyond the timed engine stages:
    // HTTP, caches, JSON, sockets, and waiting for a worker.
    let wire_mean_us = stats::mean(&run.closed.lat_us);
    l.insert(
        "server.other_us".into(),
        wire_mean_us - ratio(stage_s * 1e6, served),
    );
    l.insert(
        "server.workers.rejected_ratio".into(),
        ratio(delta(&run, "prix_http_rejected_total"), requests),
    );
    l.insert("server.workers.queue_depth_max".into(), run.queue_depth_max);
    if let Some(open) = &run.open {
        l.insert(
            "loadgen.late_us_p99".into(),
            stats::percentile_of(&open.late_us, 99.0),
        );
        l.insert(
            "loadgen.open_p50_us".into(),
            stats::percentile_of(&open.lat_us, 50.0),
        );
        l.insert(
            "loadgen.open_p99_us".into(),
            stats::percentile_of(&open.lat_us, 99.0),
        );
    }
    l.insert(
        "query_p99_us".into(),
        stats::percentile_of(&run.closed.lat_us, 99.0),
    );
    let slots = mix.sequence.len();
    let untraced_rps = run
        .untraced
        .as_ref()
        .map_or(0.0, |p| p.latency(slots).per_s);
    l.insert(
        "trace_overhead_ratio".into(),
        ratio(run.closed.latency(slots).per_s, untraced_rps),
    );
    l.insert("loadgen.clock_factor".into(), run.clock_factor);
    m.spans = run.spans;
    Ok(())
}

/// `serve_http`.
pub fn serve_http(
    db: &Path,
    pool: &[QuerySpec],
    seconds: f64,
    traced: bool,
    clock: &Clock,
) -> Result<Measured, String> {
    let mix = Mix::new(pool, true);
    let server = wire::start_server(db, false)?;
    let run = wire::serve_http(server.addr(), &mix, seconds, traced, clock);
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let run = run?;
    let mut m = wire_measured(&run, &mix);
    if traced {
        wire_layers(db, pool, &mix, run, &mut m)?;
    }
    Ok(m)
}

/// `ingest_serve`. After the last ack the server is shut down and the
/// files alone must answer for every acknowledged document.
pub fn ingest_serve(
    db: &Path,
    pool: &[QuerySpec],
    tail: &[FeedDoc],
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &Clock,
) -> Result<Measured, String> {
    let mix = Mix::new(pool, false);
    let server = wire::start_server(db, true)?;
    let run = wire::ingest_serve(server.addr(), &mix, seed, seconds, traced, clock);
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let (run, writer) = run?;

    let mut m = wire_measured(&run, &mix);
    m.attempted += writer.ack_ms.len() as u64;
    m.failed += writer.failed;
    m.failed += wire::wrong_feed_reads(tail, &writer.acks, &run.feed_seen);
    m.ingested_bytes = writer.bytes;

    // Durability: reopen from the files and count every feed class
    // against a naive match over the documents that were acknowledged.
    let mut feed = Oracle::build(
        &tail
            .iter()
            .chain(writer.acks.iter().flat_map(|a| &a.docs))
            .map(|d| d.xml.clone())
            .collect::<Vec<_>>(),
    )?;
    let lib = Lib::open(db)?;
    let snap = lib.snapshot();
    for class in 0..data::FEED_CLASSES {
        let xpath = data::feed_class_query(class);
        let want = feed.parse(&xpath).map(|q| feed.count(&q))?;
        let q = snap.parse_query(&xpath).map_err(|e| e.to_string())?;
        let got = snap.query(&q).map_err(|e| e.to_string())?.matches.len() as u64;
        m.attempted += want;
        // Each acknowledged document that cannot be read back is a
        // failed operation (as is one that appears from nowhere).
        m.failed += want.abs_diff(got);
    }
    drop(snap);
    drop(lib);

    if traced {
        wire_layers(db, pool, &mix, run, &mut m)?;
        // Commit latency drifts with the sandbox's disk by a quarter
        // between runs, more than any bound could hold it to, so the
        // writer's figures are layer metrics, not end-to-end ones.
        let docs = (writer.acks.len() * BATCH_DOCS) as f64;
        let l = &mut m.layers;
        l.insert("ingest_docs_per_s".into(), docs / writer.elapsed_s);
        for (name, p) in [("ingest_ack_p50_ms", 50.0), ("ingest_ack_p90_ms", 90.0)] {
            l.insert(name.into(), stats::percentile_of(&writer.ack_ms, p));
        }
    }
    Ok(m)
}

pub fn run(
    workload: Workload,
    setup: &setup::Setup,
    pool: &[QuerySpec],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let db = &setup.db;
    let tail = &setup.corpus.tail;
    let clock = Clock::start();
    let measured = match workload {
        Workload::QueryCold => query_cold(db, pool, seconds, traced, &clock),
        Workload::ServeHttp => serve_http(db, pool, seconds, traced, &clock),
        Workload::IngestServe => ingest_serve(db, pool, tail, seed, seconds, traced, &clock),
    };
    eprintln!(
        "prixbench: clock factor {:.3} (median; timings are scaled to the reference clock)",
        clock.median_factor()
    );
    clock.stop()?;
    measured
}
