//! In-process replay of sampled wire requests, stage by stage.
//!
//! The server records no spans of its own, so a traced wire run keeps
//! one request in eight and, once the server is down, walks each
//! through the same public calls the server makes — `read_request` →
//! `PlanCache::get` / `parse_query` → `ResultCache::get` →
//! `query_routed` → serialise → `write_to` — with a span around each.
//! The spans carry the request id of the wire request they replay.

use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

use prix_core::{ExecOpts, QueryOutcome, TwigQuery};
use prix_server::json::JsonWriter;
use prix_server::{http, AltCache, PlanCache, Response, ResultCache, ResultKey, SnapshotAlts};

use crate::data::QuerySpec;
use crate::query::{record_stages, EngineSums, Lib};
use crate::trace::Recorder;
use crate::wire::{Sample, Sent, RESULT_CACHE_ENTRIES, SERVER_MATCH_LIMIT};

/// The fields `GET /query` reports per outcome (the server's own
/// serialiser is private; this writes the same shape so the stage costs
/// the same).
fn outcome_json(w: &mut JsonWriter, xpath: &str, out: &QueryOutcome, with_matches: bool) {
    w.key("xpath").str_val(xpath);
    w.key("index").str_val(&out.index_used.to_string());
    w.key("engine").str_val(out.engine.label());
    w.key("count").num(out.matches.len() as u64);
    w.key("elapsed_us").num(out.elapsed.as_micros() as u64);
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
        .num(out.stats.filter_time.as_micros() as u64);
    w.key("refine_us")
        .num(out.stats.refine_time.as_micros() as u64);
    w.key("project_us")
        .num(out.stats.project_time.as_micros() as u64);
    w.end_obj();
    w.key("truncated").bool_val(out.truncated);
    if with_matches {
        w.key("matches").arr();
        for m in &out.matches {
            w.obj();
            w.key("doc").num(u64::from(m.doc));
            w.key("embedding").arr();
            for &p in &m.embedding {
                w.num(u64::from(p));
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
    }
}

/// Replays `samples` against the database as the run left it.
/// Returns the engine sums
/// of the replayed evaluations (cache hits evaluate nothing).
pub fn replay(
    db: &Path,
    pool: &[QuerySpec],
    samples: &[Sample],
    rec: &mut Recorder,
) -> Result<EngineSums, String> {
    let lib = Lib::open(db)?;
    let snap = lib.snapshot();
    let plans = PlanCache::new(1024);
    let results = ResultCache::new(RESULT_CACHE_ENTRIES);
    let alt_cache = AltCache::new();
    let alts = SnapshotAlts {
        snap: &snap,
        cache: &alt_cache,
    };
    let mut sums = EngineSums::default();
    let syms_len = snap.symbols().len();

    let plan = |rec: &mut Recorder, xp: &str, parent, request| -> Result<TwigQuery, String> {
        let cached = rec.scope("server.cache.plan", parent, request, || {
            plans.get(xp, syms_len)
        });
        if let Some(q) = cached {
            return Ok(q);
        }
        let q = rec
            .scope("core.xpath.parse", parent, request, || snap.parse_query(xp))
            .map_err(|e| format!("{xp}: {e}"))?;
        plans.insert(xp, syms_len, q.clone());
        Ok(q)
    };

    for s in samples {
        let request = s.request;
        let root = rec.begin("replay.request", None, request);
        let parent = Some(root);
        let req = rec
            .scope("server.http.parse", parent, request, || {
                http::read_request(&mut BufReader::new(&s.raw[..]))
            })
            .map_err(|e| format!("replay parse: {}", e.detail()))?
            .ok_or("replay parse: empty request")?;

        let body: Arc<str> = match &s.sent {
            Sent::Query(i) => {
                let xp = req.param("xp").ok_or("replayed query without xp")?.trim();
                let q = plan(rec, xp, parent, request)?;
                let opts = match req.param("limit").map(str::parse::<usize>) {
                    None => ExecOpts::new().with_limit(SERVER_MATCH_LIMIT),
                    Some(Ok(0)) => ExecOpts::new(),
                    Some(Ok(n)) => ExecOpts::new().with_limit(n),
                    Some(Err(e)) => return Err(format!("replayed limit: {e}")),
                };
                let key = ResultKey {
                    query: xp.to_string(),
                    unordered: false,
                    limit: opts.limit.map_or(u64::MAX, |n| n as u64),
                    epoch: snap.epoch(),
                    engine: String::new(),
                };
                let hit = rec.scope("server.cache.result", parent, request, || results.get(&key));
                match hit {
                    Some(body) => body,
                    None => {
                        let span = rec.begin("core.query", parent, request);
                        let start_ns = rec.now_ns();
                        let routed = snap
                            .query_routed(&q, &opts, None, &alts)
                            .map_err(|e| format!("{xp}: {e}"))?;
                        rec.end(span);
                        record_stages(rec, &routed.outcome, start_ns, span, request);
                        sums.add(pool[*i].class, &routed.outcome);
                        let text = rec.scope("server.json", parent, request, || {
                            let mut w = JsonWriter::new();
                            w.obj();
                            w.key("epoch").num(snap.epoch());
                            outcome_json(&mut w, xp, &routed.outcome, true);
                            w.end_obj();
                            w.finish()
                        });
                        let body: Arc<str> = Arc::from(text.as_str());
                        results.insert(key, Arc::clone(&body));
                        body
                    }
                }
            }
            Sent::Batch(lines) => {
                let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
                let xps: Vec<&str> = text.lines().map(str::trim).collect();
                let key = ResultKey {
                    query: xps.join("\n"),
                    unordered: false,
                    limit: u64::MAX,
                    epoch: snap.epoch(),
                    engine: String::new(),
                };
                let hit = rec.scope("server.cache.result", parent, request, || results.get(&key));
                match hit {
                    Some(body) => body,
                    None => {
                        let queries = xps
                            .iter()
                            .map(|xp| plan(rec, xp, parent, request))
                            .collect::<Result<Vec<_>, _>>()?;
                        let outs = rec
                            .scope("core.query", parent, request, || {
                                snap.query_batch_opts(&queries, 1, &ExecOpts::new())
                            })
                            .map_err(|e| format!("replayed batch: {e}"))?;
                        for (&i, out) in lines.iter().zip(&outs) {
                            sums.add(pool[i].class, out);
                        }
                        let text = rec.scope("server.json", parent, request, || {
                            let mut w = JsonWriter::new();
                            w.obj();
                            w.key("epoch").num(snap.epoch());
                            w.key("count").num(outs.len() as u64);
                            w.key("results").arr();
                            for (xp, out) in xps.iter().zip(&outs) {
                                w.obj();
                                outcome_json(&mut w, xp, out, false);
                                w.end_obj();
                            }
                            w.end_arr();
                            w.end_obj();
                            w.finish()
                        });
                        let body: Arc<str> = Arc::from(text.as_str());
                        results.insert(key, Arc::clone(&body));
                        body
                    }
                }
            }
            Sent::Feed(_) => {
                rec.end(root);
                continue;
            }
        };
        rec.scope("server.http.write", parent, request, || {
            let mut sink = Vec::with_capacity(body.len() + 128);
            Response::new(200)
                .json(String::from(&*body))
                .write_to_conn(&mut sink, true, false)
                .map(|()| std::hint::black_box(sink.len()))
        })
        .map_err(|e| format!("replay write: {e}"))?;
        rec.end(root);
    }
    Ok(sums)
}
