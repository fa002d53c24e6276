//! Wildcard twigs over deep recursive parse trees (the TREEBANK
//! scenario), with a look at the MaxGap pruning of §5.4 and a
//! side-by-side against TwigStack and ViST.
//!
//! ```sh
//! cargo run --release --example parse_trees
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use prix::core::index::ExecOpts;
use prix::core::{EngineConfig, PrixEngine};
use prix::datagen::Dataset;
use prix::storage::{BufferPool, Pager};
use prix::twigstack::{encode_collection, Algorithm, StreamStore, TwigJoin, XbTree};
use prix::vist::VistIndex;

fn main() {
    let collection = prix::datagen::generate(Dataset::Treebank, 0.2, 42);
    let stats = collection.stats();
    println!(
        "corpus: {} sentences, {} elements, max depth {}",
        stats.sequences, stats.elements, stats.max_depth
    );

    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).expect("engine");
    let view = engine.snapshot();

    // `//` and `*` wildcards: processed without extra subsequence
    // overhead (§4.5) — only the connectedness climb changes.
    for xpath in ["//S//NP/SYM", "//S/*/NP", "//NP//PP//NN"] {
        let q = view.parse_query(xpath).unwrap();
        engine.clear_cache().unwrap();
        let out = view.query(&q).unwrap();
        println!(
            "\n{xpath}: {} matches, {} blocks, {:?}",
            out.matches.len(),
            out.io.seg_block_fetches,
            out.elapsed
        );
    }

    // The MaxGap effect on Q8 (§6.4.2): near misses where NP is an
    // ancestor but not the parent of RBR_OR_JJR/PP are pruned during
    // subsequence matching because MaxGap(RBR_OR_JJR) = 0.
    let q8 = view.parse_query("//NP[./RBR_OR_JJR]/PP").unwrap();
    let with = view.query_opts(&q8, &ExecOpts::new()).unwrap();
    let without = view
        .query_opts(&q8, &ExecOpts::new().without_maxgap())
        .unwrap();
    println!(
        "\nQ8 with MaxGap:    {} trie nodes scanned, {} candidates, {} matches",
        with.stats.nodes_scanned, with.stats.candidates, with.stats.matches
    );
    println!(
        "Q8 without MaxGap: {} trie nodes scanned, {} candidates, {} matches",
        without.stats.nodes_scanned, without.stats.candidates, without.stats.matches
    );

    // The same query on the baselines.
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let raw = encode_collection(&collection);
    let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
    let mut xb = HashMap::new();
    for (&sym, elems) in &raw {
        xb.insert(sym, XbTree::build(Arc::clone(&pool), elems).unwrap());
    }
    let ts = TwigJoin::new(&streams)
        .execute(&q8, Algorithm::TwigStack)
        .unwrap();
    println!(
        "\nTwigStack on Q8: {} matches, but {} path solutions were built and {} merged \
         candidates discarded (parent-child sub-optimality, §2)",
        ts.stats.matches,
        ts.stats.path_solutions,
        ts.stats.merged_candidates.saturating_sub(ts.stats.matches)
    );
    let xbr = TwigJoin::with_xbtrees(&streams, &xb)
        .execute(&q8, Algorithm::TwigStackXB)
        .unwrap();
    println!(
        "TwigStackXB on Q8: {} matches, {} internal skips, {} drill-downs",
        xbr.stats.matches, xbr.stats.internal_skips, xbr.stats.drilldowns
    );

    let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let vist = VistIndex::build(vist_pool, &collection).unwrap();
    let vo = vist.execute(&q8, &collection).unwrap();
    println!(
        "ViST on Q8: {} candidates ({} false alarms), {} unique (symbol,prefix) keys touched \
         — the wildcard explosion of §6.4.1",
        vo.stats.candidates, vo.stats.false_alarms, vo.stats.keys_matched
    );
}
