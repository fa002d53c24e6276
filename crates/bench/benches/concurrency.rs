//! Concurrent query throughput: `EngineSnapshot::query_batch` at 1, 2, and
//! 4 worker threads over a warm sharded buffer pool. The single-mutex
//! pool serialized every page touch, so multi-threaded batches used to
//! run at single-thread speed; the sharded pool lets page accesses on
//! different shards proceed in parallel.
//!
//! NOTE: the speedup is hardware-bound. On a single-core host (some CI
//! containers) all thread counts run at the same speed plus scheduling
//! overhead — the printed `available_parallelism` makes that visible.

use prix_core::{EngineConfig, PrixEngine, TwigQuery};
use prix_datagen::{generate, queries::queries_for, Dataset};
use prix_testkit::bench::{Harness, Opts};

fn bench_query_batch(h: &mut Harness) {
    h.set_opts(Opts::samples(10));
    let collection = generate(Dataset::Dblp, 0.5, 17);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let queries: Vec<TwigQuery> = queries_for(Dataset::Dblp)
        .into_iter()
        .map(|pq| snap.parse_query(pq.xpath).unwrap())
        .collect();
    // Replicate the query set so each batch carries enough work to
    // amortize thread startup, then warm the pool once.
    let batch: Vec<TwigQuery> = (0..16).flat_map(|_| queries.iter().cloned()).collect();
    snap.query_batch(&batch, 1).unwrap();

    for threads in [1usize, 2, 4] {
        let snap = &snap;
        let batch = &batch;
        h.bench(&format!("query_batch_{threads}_threads"), move || {
            let out = snap.query_batch(batch, threads).unwrap();
            std::hint::black_box(out.len());
        });
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("concurrency bench: available_parallelism = {cores}");
    let mut h = Harness::from_args("concurrency");
    bench_query_batch(&mut h);
    h.finish();
}
