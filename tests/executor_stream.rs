//! The streaming executor's contract against the historical one:
//!
//! * **Equivalence** — for every query of the paper workload, on both
//!   the RPIndex and the EPIndex, draining `execute_stream` yields the
//!   same match set and identical deterministic counters as
//!   `execute_opts` without a limit.
//! * **Limit pushdown** — on a high-fanout collection, `limit = 10`
//!   performs strictly fewer range queries, scans strictly fewer trie
//!   nodes, and reads strictly fewer buffer-pool pages than the
//!   unlimited run (the observable win of stopping the trie descent).
//! * **I/O attribution** — each `QueryOutcome.io` in a concurrent
//!   batch counts only its own query's page accesses.

use prix::core::index::ExecOpts;
use prix::core::{EngineConfig, PrixEngine, PrixIndex, TwigQuery};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::xml::Collection;

/// Drains a stream and returns its matches plus final stats.
fn drain(
    idx: &PrixIndex,
    q: &TwigQuery,
    opts: &ExecOpts,
) -> (Vec<prix::core::TwigMatch>, prix::core::QueryStats, bool) {
    let mut stream = idx.execute_stream(q, opts).unwrap();
    let mut out = Vec::new();
    while let Some(m) = stream.next_match().unwrap() {
        out.push(m);
    }
    (out, stream.stats(), stream.exhausted())
}

fn sorted(mut v: Vec<prix::core::TwigMatch>) -> Vec<prix::core::TwigMatch> {
    v.sort();
    v
}

/// For every paper-workload query, on every index that supports it:
/// the drained stream equals the historical executor — same match set
/// and equal deterministic counters.
fn check_equivalence(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let queries: Vec<_> = queries_for(ds)
        .iter()
        .map(|pq| (pq.id, snap.parse_query(pq.xpath).unwrap()))
        .collect();
    let indexes = [
        ("RPIndex", engine.rp_index()),
        ("EPIndex", engine.ep_index()),
    ];
    let mut executed = 0;
    for (id, q) in &queries {
        for (name, idx) in indexes {
            // Some queries are only supported by one flavor (value
            // predicates need the EPIndex, single-node queries the
            // extended plan); equivalence only applies where the
            // historical executor ran at all.
            let Ok((old_matches, old_stats)) = idx.execute_opts(q, &ExecOpts::new()) else {
                continue;
            };
            executed += 1;
            let (streamed, stream_stats, exhausted) = drain(idx, q, &ExecOpts::new());
            assert!(exhausted, "{id} on {name}: unlimited stream must drain");
            assert_eq!(
                sorted(streamed),
                sorted(old_matches),
                "{id} on {name}: match sets differ"
            );
            assert_eq!(
                stream_stats.counters_only(),
                old_stats.counters_only(),
                "{id} on {name}: counters differ"
            );
        }
    }
    assert!(executed > 0, "workload exercised no index at all");
}

#[test]
fn stream_equals_execute_opts_dblp() {
    check_equivalence(Dataset::Dblp);
}

#[test]
fn stream_equals_execute_opts_swissprot() {
    check_equivalence(Dataset::Swissprot);
}

#[test]
fn stream_equals_execute_opts_treebank() {
    check_equivalence(Dataset::Treebank);
}

/// A collection where `//a/b` has many matches spread over many
/// distinct trie paths: every document gets a different shape (varying
/// sibling fanout and padding labels), so the descent must keep issuing
/// range queries to find more candidates.
fn high_fanout_collection(docs: usize) -> Collection {
    let mut c = Collection::new();
    for i in 0..docs {
        let mut xml = String::from("<r>");
        // Padding siblings vary the Prüfer sequence per document so
        // documents do not share one trie path.
        for p in 0..(i % 7) {
            xml.push_str(&format!("<p{p}>x</p{p}>"));
        }
        for _ in 0..(1 + i % 3) {
            xml.push_str("<a><b>v</b></a>");
        }
        xml.push_str("</r>");
        c.add_xml(&xml).unwrap();
    }
    c
}

/// The tentpole's observable win: `limit = 10` does strictly less
/// filtering *and* strictly less I/O than the unlimited run.
#[test]
fn limit_pushdown_strictly_reduces_work_and_io() {
    let engine = PrixEngine::build(high_fanout_collection(120), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query("//a/b").unwrap();

    // Cold cache for each run so `io.logical_reads` is comparable.
    engine.clear_cache().unwrap();
    let unlimited = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    assert!(
        unlimited.matches.len() > 100,
        "workload too small: {} matches",
        unlimited.matches.len()
    );
    assert!(!unlimited.truncated);

    engine.clear_cache().unwrap();
    let limited = snap
        .query_opts(&q, &ExecOpts::new().with_limit(10))
        .unwrap();
    assert_eq!(limited.matches.len(), 10);
    assert!(limited.truncated);

    assert!(
        limited.stats.range_queries < unlimited.stats.range_queries,
        "range queries not reduced: {} vs {}",
        limited.stats.range_queries,
        unlimited.stats.range_queries
    );
    assert!(
        limited.stats.nodes_scanned < unlimited.stats.nodes_scanned,
        "trie-node scans not reduced: {} vs {}",
        limited.stats.nodes_scanned,
        unlimited.stats.nodes_scanned
    );
    assert!(
        limited.io.logical_reads < unlimited.io.logical_reads,
        "page reads not reduced: {} vs {}",
        limited.io.logical_reads,
        unlimited.io.logical_reads
    );
    // The limited run's matches are a prefix of the unlimited stream.
    let idx = engine.rp_index(); // `//a/b` carries no value
    let (streamed, _, _) = drain(idx, &q, &ExecOpts::new());
    assert_eq!(limited.matches, streamed[..10]);
}

/// Per-query I/O attribution: in a concurrent batch, each outcome's
/// `io` equals the same query run alone — other workers' page accesses
/// never leak in.
#[test]
fn batch_io_is_attributed_per_query() {
    let collection = generate(Dataset::Dblp, 0.03, 7);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let queries: Vec<_> = queries_for(Dataset::Dblp)
        .iter()
        .map(|pq| snap.parse_query(pq.xpath).unwrap())
        .collect();

    // Serial baseline: logical reads are deterministic per query
    // (independent of cache temperature, unlike physical reads).
    let serial: Vec<u64> = queries
        .iter()
        .map(|q| snap.query(q).unwrap().io.logical_reads)
        .collect();

    // Interleave the queries across 4 workers, several times over.
    let many: Vec<TwigQuery> = (0..4).flat_map(|_| queries.iter().cloned()).collect();
    let outs = snap.query_batch(&many, 4).unwrap();
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.io.logical_reads,
            serial[i % serial.len()],
            "query {} in batch read a different page count than alone",
            i % serial.len()
        );
    }
}
