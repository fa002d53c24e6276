//! Limit pushdown on the streaming executor: latency and Disk-IO for
//! `limit ∈ {1, 10, ∞}` on a high-fanout collection where `//a/b` has
//! thousands of matches spread over many distinct trie paths.
//!
//! The point being measured: with a limit, the `CandidateCursor` stops
//! the trie descent as soon as enough matches streamed out, so both
//! wall clock *and* page reads shrink with the limit. The final JSON
//! line reports the per-limit work counters (the Disk-IO story the
//! paper tells in §6.4 for its own plots).

use prix_core::index::ExecOpts;
use prix_core::{EngineConfig, PrixEngine};
use prix_testkit::bench::{Harness, Opts};
use prix_xml::Collection;

/// Every document gets a different shape (varying padding fanout), so
/// documents do not collapse onto shared trie paths and the descent
/// must keep working to find more matches.
fn high_fanout_collection(docs: usize) -> Collection {
    let mut c = Collection::new();
    for i in 0..docs {
        let mut xml = String::from("<r>");
        for p in 0..(i % 11) {
            xml.push_str(&format!("<p{p}>x</p{p}>"));
        }
        for _ in 0..(1 + i % 5) {
            xml.push_str("<a><b>v</b></a>");
        }
        xml.push_str("</r>");
        c.add_xml(&xml).unwrap();
    }
    c
}

fn main() {
    let engine = PrixEngine::build(high_fanout_collection(2000), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let mut syms = engine.collection().symbols().clone();
    let q = prix_core::parse_xpath("//a/b", &mut syms).unwrap();

    let cases: [(&str, ExecOpts); 3] = [
        ("limit_1", ExecOpts::new().with_limit(1)),
        ("limit_10", ExecOpts::new().with_limit(10)),
        ("unlimited", ExecOpts::new()),
    ];

    let mut h = Harness::from_args("limit_pushdown");
    h.set_opts(Opts {
        warmup: 2,
        samples: 20,
    });
    for (name, opts) in &cases {
        h.bench(&format!("query/{name}"), || {
            std::hint::black_box(snap.query_opts(&q, opts).unwrap().matches.len());
        });
    }
    h.finish();

    // One cold-cache run per limit for the Disk-IO numbers; the strict
    // ordering is this bench's acceptance check.
    let mut rows = Vec::new();
    let mut reads = Vec::new();
    for (name, opts) in &cases {
        engine.clear_cache().unwrap();
        let out = snap.query_opts(&q, opts).unwrap();
        reads.push(out.io.logical_reads);
        rows.push(format!(
            r#"  {{"case":"{name}","matches":{},"truncated":{},"range_queries":{},"nodes_scanned":{},"logical_reads":{},"physical_reads":{}}}"#,
            out.matches.len(),
            out.truncated,
            out.stats.range_queries,
            out.stats.nodes_scanned,
            out.io.logical_reads,
            out.io.physical_reads,
        ));
    }
    println!("[\n{}\n]", rows.join(",\n"));
    assert!(
        reads[0] < reads[1] && reads[1] < reads[2],
        "limit pushdown must read strictly fewer pages: {reads:?}"
    );
}
