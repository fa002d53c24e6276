//! Concurrent read queries: an engine view is `Sync` — all index reads go
//! through the internally synchronized *sharded* buffer pool — so many
//! threads can query one database simultaneously, and the pool's
//! eviction, clearing, and I/O accounting must stay correct under
//! contention.

use std::sync::Arc;

use prix::core::{
    parse_xpath, EngineConfig, ExecOpts, IndexKind, LabelingMode, PrixEngine, PrixIndex, TwigMatch,
    TwigQuery,
};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::storage::{BufferPool, Pager};

/// Drains `q` off a bare index, default options.
fn run(idx: &PrixIndex, q: &TwigQuery) -> Vec<TwigMatch> {
    let mut stream = idx.stream(q, &ExecOpts::new(), None).unwrap();
    let mut matches = Vec::new();
    while let Some(m) = stream.next_match().unwrap() {
        matches.push(m);
    }
    matches
}

#[test]
fn parallel_queries_agree_with_serial() {
    let collection = generate(Dataset::Swissprot, 0.03, 5);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let engine = engine.snapshot();
    let queries: Vec<_> = queries_for(Dataset::Swissprot)
        .into_iter()
        .map(|pq| {
            (
                pq.id,
                engine.parse_query(pq.xpath).unwrap(),
                pq.expected_matches,
            )
        })
        .collect();

    // Serial baseline.
    let serial: Vec<usize> = queries
        .iter()
        .map(|(_, q, _)| engine.query(q).unwrap().matches.len())
        .collect();

    // 8 threads x all queries, sharing one view of the engine. A panic
    // in any spawned thread propagates when the scope joins it.
    let engine_ref = &*engine;
    std::thread::scope(|s| {
        for t in 0..8 {
            let queries = &queries;
            let serial = &serial;
            s.spawn(move || {
                for (i, (id, q, expected)) in queries.iter().enumerate() {
                    let out = engine_ref.query(q).unwrap();
                    assert_eq!(out.matches.len(), serial[i], "thread {t} query {id}");
                    assert_eq!(out.matches.len() as u64, *expected, "{id}");
                }
            });
        }
    });
}

#[test]
fn parallel_queries_under_cache_pressure() {
    // A tiny buffer pool forces constant eviction while 4 threads hit
    // different queries: exercises the LRU under contention.
    let collection = generate(Dataset::Dblp, 0.025, 9);
    let engine = PrixEngine::build(
        collection,
        EngineConfig {
            buffer_pages: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = engine.snapshot();
    let queries: Vec<_> = queries_for(Dataset::Dblp)
        .into_iter()
        .map(|pq| (engine.parse_query(pq.xpath).unwrap(), pq.expected_matches))
        .collect();
    let engine_ref = &*engine;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let queries = &queries;
            s.spawn(move || {
                for (q, expected) in queries {
                    assert_eq!(engine_ref.query(q).unwrap().matches.len() as u64, *expected);
                }
            });
        }
    });
}

#[test]
fn query_batch_agrees_with_serial() {
    let collection = generate(Dataset::Dblp, 0.025, 3);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let engine = engine.snapshot();
    let queries: Vec<_> = queries_for(Dataset::Dblp)
        .into_iter()
        .map(|pq| engine.parse_query(pq.xpath).unwrap())
        .collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| engine.query(q).unwrap().matches)
        .collect();
    for threads in [2, 4, 8] {
        let batch = engine.query_batch(&queries, threads).unwrap();
        for (i, out) in batch.iter().enumerate() {
            assert_eq!(out.matches, serial[i], "threads={threads} query {i}");
        }
    }
}

#[test]
fn concurrent_readers_during_eviction() {
    // 8 readers over 96 pages in an 8-frame pool: every access battles
    // eviction on some shard while other shards keep churning. Writers
    // bump a per-page counter byte; readers must only ever observe a
    // value some writer committed (no torn frames, no lost writes).
    // Explicit shard count: the default would collapse to one shard on
    // single-core CI hosts.
    let pool = Arc::new(BufferPool::with_shards(Pager::in_memory(), 8, 4));
    let ids: Vec<_> = (0..96).map(|_| pool.allocate_page().unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page_mut(id, |d| {
            d[0] = i as u8;
            d[1] = 0;
        })
        .unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..2u8 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            s.spawn(move || {
                for round in 1..=20u8 {
                    for &id in ids.iter().skip(t as usize).step_by(2) {
                        pool.with_page_mut(id, |d| d[1] = round).unwrap();
                    }
                }
            });
        }
        for _ in 0..6 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    for (i, &id) in ids.iter().enumerate() {
                        let (tag, counter) = pool.with_page(id, |d| (d[0], d[1])).unwrap();
                        assert_eq!(tag, i as u8, "page identity byte corrupted");
                        assert!(counter <= 20, "impossible counter value {counter}");
                    }
                }
            });
        }
    });
    assert!(pool.resident() <= 8, "capacity exceeded under contention");
    for (i, &id) in ids.iter().enumerate() {
        let (tag, counter) = pool.with_page(id, |d| (d[0], d[1])).unwrap();
        assert_eq!(tag, i as u8);
        assert_eq!(counter, 20, "final write lost for page {i}");
    }
}

#[test]
fn index_build_races_queries_on_shared_pool() {
    // One pool, two indexes: thread 1 bulk-builds an EP index (heavy
    // page writes) while thread 2 hammers queries on an already-built
    // RP index (reads + evictions) of the same pool. Mirrors the
    // engine's concurrent RP/EP build racing early queries.
    let mut collection = generate(Dataset::Dblp, 0.02, 11);
    let dummy = collection.intern("\u{1}prix-dummy");
    let pool = Arc::new(BufferPool::with_shards(Pager::in_memory(), 64, 8));
    let rp = PrixIndex::build(
        Arc::clone(&pool),
        &collection,
        IndexKind::Regular,
        LabelingMode::Exact,
        dummy,
    )
    .unwrap();
    let mut syms = collection.symbols().clone();
    let q = parse_xpath("//inproceedings[./author]/year", &mut syms).unwrap();
    let expected = run(&rp, &q);
    std::thread::scope(|s| {
        let builder = {
            let pool = Arc::clone(&pool);
            let collection = &collection;
            s.spawn(move || {
                PrixIndex::build(
                    pool,
                    collection,
                    IndexKind::Extended,
                    LabelingMode::Exact,
                    dummy,
                )
                .unwrap()
            })
        };
        for _ in 0..4 {
            let rp = &rp;
            let q = &q;
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..30 {
                    assert_eq!(&run(rp, q), expected);
                }
            });
        }
        let ep = builder.join().expect("ep build thread");
        let vq = parse_xpath(r#"//inproceedings[./author]"#, &mut syms.clone()).unwrap();
        assert!(!run(&ep, &vq).is_empty());
    });
}

#[test]
fn clear_races_readers() {
    // clear() flushes + drops shard by shard while readers re-fault the
    // pages back in: every read must still see the last-written bytes.
    let pool = Arc::new(BufferPool::with_shards(Pager::in_memory(), 32, 8));
    let ids: Vec<_> = (0..64).map(|_| pool.allocate_page().unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page_mut(id, |d| d[7] = (i as u8) ^ 0x5A).unwrap();
    }
    std::thread::scope(|s| {
        for _ in 0..6 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            s.spawn(move || {
                for _ in 0..25 {
                    for (i, &id) in ids.iter().enumerate() {
                        let v = pool.with_page(id, |d| d[7]).unwrap();
                        assert_eq!(v, (i as u8) ^ 0x5A);
                    }
                }
            });
        }
        let pool = Arc::clone(&pool);
        s.spawn(move || {
            for _ in 0..50 {
                pool.clear().unwrap();
                std::thread::yield_now();
            }
        });
    });
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(pool.with_page(id, |d| d[7]).unwrap(), (i as u8) ^ 0x5A);
    }
}

#[test]
fn sharded_cold_io_matches_single_shard_pool() {
    // The acceptance bar for sharding: cold-cache physical reads of a
    // single-threaded query workload are byte-for-byte identical to the
    // classic global-LRU pool (1 shard) under the paper's page budget.
    let collection = generate(Dataset::Swissprot, 0.02, 5);
    let mut per_shard: Vec<Vec<u64>> = Vec::new();
    for shards in [1usize, 4, 16] {
        let dummy_name = "\u{1}prix-dummy";
        let mut coll = collection.clone();
        let dummy = coll.intern(dummy_name);
        let pool = Arc::new(BufferPool::with_shards(Pager::in_memory(), 2000, shards));
        let idx = PrixIndex::build(
            Arc::clone(&pool),
            &coll,
            IndexKind::Extended,
            LabelingMode::Exact,
            dummy,
        )
        .unwrap();
        let mut reads = Vec::new();
        for pq in queries_for(Dataset::Swissprot) {
            let mut syms = coll.symbols().clone();
            let q = parse_xpath(pq.xpath, &mut syms).unwrap();
            pool.clear().unwrap();
            let before = pool.snapshot();
            run(&idx, &q);
            reads.push(pool.snapshot().since(&before).physical_reads);
        }
        per_shard.push(reads);
    }
    assert_eq!(
        per_shard[0], per_shard[1],
        "4-shard cold I/O deviates from global LRU"
    );
    assert_eq!(
        per_shard[0], per_shard[2],
        "16-shard cold I/O deviates from global LRU"
    );
    assert!(per_shard[0].iter().any(|&r| r > 0), "workload read pages");
}
