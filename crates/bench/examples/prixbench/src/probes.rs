//! Layer probes: each times one public call of one layer on inputs
//! taken from the run's own corpus and database, so that a traced run
//! of any workload reports every layer's unit cost next to what the
//! workload made of it.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use prix_core::{EngineId, PrixEngine, SharedEngine};
use prix_datagen::SplitMix64;
use prix_prufer::{refine_match, subsequence_positions, ExtendedTree, PruferSeq, RefineCtx};
use prix_server::{http, AltCache, PlanCache, Response, ResultCache, ResultKey, SnapshotAlts};
use prix_storage::{BPlusTree, BufferPool, FileStore, IoStats, Pager, SegmentReader};
use prix_xml::{parse_document, SymbolTable};

use crate::data::{Class, Oracle, QuerySpec};
use crate::setup::{self, POOL_PAGES};
use crate::sys;

/// Times `f` over `reps` calls and returns nanoseconds per call.
fn ns_per_call(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// `xml`: `parse_document` over the first megabyte of the corpus;
/// `prufer`: `PruferSeq::regular` + `ExtendedTree::build` per tree.
fn xml_and_prufer(bulk: &[String], out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut syms = SymbolTable::new();
    let mut bytes = 0usize;
    let mut trees = Vec::new();
    let t = Instant::now();
    for d in bulk {
        trees.push(parse_document(d, &mut syms).map_err(|e| format!("probe parse: {e}"))?);
        bytes += d.len();
        if bytes >= 1 << 20 {
            break;
        }
    }
    out.insert(
        "xml.parse_mb_per_s",
        bytes as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64(),
    );
    let dummy = syms.intern("\u{0}dummy");
    let ns = ns_per_call(trees.len(), |i| {
        let seq = PruferSeq::regular(&trees[i]);
        let ext = ExtendedTree::build(&trees[i], dummy);
        std::hint::black_box((seq.len(), ext.tree.len()));
    });
    out.insert("prufer.seq_build_us_per_doc", ns / 1e3);
    Ok(())
}

/// `prufer.refine_match_ns`: Algorithm 2 on candidate contexts — the
/// subsequence matches of value-free pool queries in the documents
/// holding their rarest label.
fn refine(oracle: &mut Oracle, pool: &[QuerySpec]) -> Result<f64, String> {
    struct Doc {
        seq: PruferSeq,
        leaves: Vec<(prix_xml::Sym, u32)>,
    }
    let mut total_ns = 0u128;
    let mut calls = 0u64;
    let structural = pool
        .iter()
        .filter(|q| matches!(q.class, Class::Path | Class::Twig))
        .take(12);
    for spec in structural {
        let q = oracle.parse(&spec.xpath)?;
        let qseq = q.prufer();
        let edges = q.edges_by_post();
        let qleaves = q.leaves();
        let docs: Vec<Doc> = oracle
            .candidates(&q)
            .iter()
            .take(64)
            .map(|&id| {
                let tree = oracle.coll.doc(id);
                Doc {
                    seq: PruferSeq::regular(tree),
                    leaves: tree.leaves(),
                }
            })
            .collect();
        let contexts: Vec<(&Doc, Vec<u32>)> = docs
            .iter()
            .flat_map(|d| {
                subsequence_positions(&qseq.lps, &d.seq.lps, 16)
                    .into_iter()
                    .map(move |p| (d, p))
            })
            .collect();
        let t = Instant::now();
        for _ in 0..20 {
            for (d, positions) in &contexts {
                std::hint::black_box(refine_match(&RefineCtx {
                    doc_nps: &d.seq.nps,
                    query_nps: &qseq.nps,
                    positions,
                    edges: &edges,
                    query_leaves: &qleaves,
                    doc_leaves: &d.leaves,
                    doc_lps: &d.seq.lps,
                    skip_leaf_check: false,
                }));
            }
        }
        total_ns += t.elapsed().as_nanos();
        calls += 20 * contexts.len() as u64;
    }
    if calls == 0 {
        return Err("refine probe found no candidate contexts".into());
    }
    Ok(total_ns as f64 / calls as f64)
}

/// `storage.buffer`: `BufferPool::with_page` on cleared, then resident
/// page ids of the database file.
fn buffer(db: &Path, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    let pool = engine.pool();
    let pages = pool.pager().num_pages().min(POOL_PAGES as u64 / 2);
    if pages < 2 {
        return Err("database file has no pages to probe".into());
    }
    pool.clear().map_err(|e| format!("clear: {e}"))?;
    let mut touch = |i: usize| {
        let id = 1 + i as u64 % (pages - 1);
        std::hint::black_box(pool.with_page(id, |p| p[0]).expect("page inside the file"));
    };
    out.insert(
        "storage.buffer.miss_ns",
        ns_per_call(pages as usize - 1, &mut touch),
    );
    out.insert(
        "storage.buffer.hit_ns",
        ns_per_call(20 * (pages as usize - 1), &mut touch),
    );
    Ok(())
}

/// `storage.bptree`: point gets and range scans on a 100 000-key tree
/// bulk-loaded into a scratch in-memory pool (the delta tier's own
/// trees are private to `PrixIndex`).
fn bptree(out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    const KEYS: u64 = 100_000;
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 4096));
    let key = |k: u64| (k * 7).to_be_bytes().to_vec();
    let tree = BPlusTree::bulk_load(
        pool,
        (0..KEYS).map(|k| (key(k), k.to_le_bytes().to_vec())),
        0.9,
    )
    .map_err(|e| format!("bptree probe: {e}"))?;
    let mut rng = SplitMix64::new(0xB7);
    out.insert(
        "storage.bptree.get_ns",
        ns_per_call(50_000, |_| {
            let k = key(rng.below(KEYS));
            std::hint::black_box(tree.get(&k).expect("scratch tree read"));
        }),
    );
    let mut entries = 0u64;
    let t = Instant::now();
    for _ in 0..200 {
        let lo = key(rng.below(KEYS - 2000));
        let mut left = 1000;
        tree.scan(Bound::Included(&lo[..]), Bound::Unbounded, |_, v| {
            std::hint::black_box(v);
            entries += 1;
            left -= 1;
            left > 0
        })
        .map_err(|e| format!("bptree scan: {e}"))?;
    }
    out.insert(
        "storage.bptree.scan_ns_per_entry",
        t.elapsed().as_nanos() as f64 / entries as f64,
    );
    Ok(())
}

/// `storage.segment`: `scan_tag_range` over a seeded sample of symbols
/// and `record` over a seeded sample of documents of the bulk-built EP
/// segment (the larger of the two).
fn segment(db: &Path, seed: u64, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut path = db.as_os_str().to_os_string();
    path.push(".g1.ep.seg");
    let store = FileStore::open(&path).map_err(|e| format!("open EP segment: {e}"))?;
    let reader = SegmentReader::open(Box::new(store), Arc::new(IoStats::new()))
        .map_err(|e| format!("open EP segment: {e}"))?;
    let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    let n_syms = SharedEngine::new(engine).snapshot().symbols().len() as u64;
    let mut rng = SplitMix64::new(seed ^ 0x5E6);
    out.insert(
        "storage.segment.tag_range_ns",
        ns_per_call(512, |_| {
            let sym = rng.below(n_syms) as u32;
            std::hint::black_box(
                reader
                    .scan_tag_range(sym, 0, u64::MAX)
                    .expect("segment tag scan")
                    .len(),
            );
        }),
    );
    let n_docs = u64::from(reader.n_docs());
    out.insert(
        "storage.segment.record_ns",
        ns_per_call(4096, |_| {
            let doc = rng.below(n_docs) as u32;
            std::hint::black_box(reader.record(doc).expect("segment record").len());
        }),
    );
    Ok(())
}

/// `core`: `parse_query` over the pool, `SharedEngine::snapshot`, one
/// offline compaction of a scratch copy of the database, and one build
/// of the alternative engines' substrates (what an alt-routed query
/// pays after every publish).
fn core(
    db: &Path,
    scratch: &Path,
    pool: &[QuerySpec],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    let shared = SharedEngine::new(engine);
    let snap = shared.snapshot();
    out.insert(
        "core.xpath.parse_ns",
        ns_per_call(8 * pool.len(), |i| {
            std::hint::black_box(
                snap.parse_query(&pool[i % pool.len()].xpath)
                    .expect("pool queries parse"),
            );
        }),
    );
    out.insert(
        "core.snapshot.pin_ns",
        ns_per_call(200_000, |_| {
            std::hint::black_box(shared.snapshot().epoch());
        }),
    );
    let t = Instant::now();
    let alt_cache = AltCache::new();
    let alts = SnapshotAlts {
        snap: &snap,
        cache: &alt_cache,
    };
    prix_core::AltProvider::alt_engine(&alts, EngineId::TwigStackXb)
        .map_err(|e| format!("alt build: {e}"))?;
    out.insert("core.plan.alt_rebuild_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(snap);
    drop(shared);

    // Compaction mutates, so it runs on a copy.
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let src = db.parent().ok_or("database path has no directory")?;
    for entry in std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), scratch.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    let copy = scratch.join(db.file_name().ok_or("database path has no file name")?);
    let mut engine = PrixEngine::reopen(&copy, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    let written = sys::file_bytes_written()?;
    let t = Instant::now();
    let compacted = engine.compact().map_err(|e| format!("compact: {e}"))?;
    out.insert("core.compact.s", t.elapsed().as_secs_f64());
    out.insert(
        "core.compact.bytes_rewritten",
        (sys::file_bytes_written()? - written) as f64,
    );
    if !compacted {
        return Err("compaction probe found an empty delta".into());
    }
    drop(engine);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))
}

/// `server`: `read_request` and `Response::write_to` on captured bytes,
/// `ResultCache::get` and `PlanCache::get` on resident keys.
fn server(
    db: &Path,
    pool: &[QuerySpec],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mix = crate::wire::Mix::new(pool, true);
    let requests = mix.request_bytes();
    out.insert(
        "server.http.parse_ns",
        ns_per_call(40 * requests.len(), |i| {
            let raw = &requests[i % requests.len()];
            std::hint::black_box(
                http::read_request(&mut BufReader::new(&raw[..])).expect("own request parses"),
            );
        }),
    );
    let body = format!("{{\"epoch\":1,\"matches\":[{}]}}", "7,".repeat(1000));
    let mut sink = Vec::with_capacity(body.len() + 256);
    out.insert(
        "server.http.write_ns",
        ns_per_call(20_000, |_| {
            sink.clear();
            Response::new(200)
                .json(body.clone())
                .write_to_conn(&mut sink, true, false)
                .expect("write to memory");
            std::hint::black_box(sink.len());
        }),
    );

    let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    let snap = SharedEngine::new(engine).snapshot();
    let syms_len = snap.symbols().len();
    let results = ResultCache::new(4096);
    let plans = PlanCache::new(1024);
    let keys: Vec<ResultKey> = pool
        .iter()
        .map(|q| ResultKey {
            query: q.xpath.clone(),
            unordered: false,
            limit: u64::MAX,
            epoch: snap.epoch(),
            engine: String::new(),
        })
        .collect();
    for (key, q) in keys.iter().zip(pool) {
        results.insert(key.clone(), Arc::from(body.as_str()));
        let parsed = snap.parse_query(&q.xpath).map_err(|e| e.to_string())?;
        plans.insert(&q.xpath, syms_len, parsed);
    }
    let ns = ns_per_call(40 * keys.len(), |i| {
        let k = i % keys.len();
        std::hint::black_box(results.get(&keys[k]).is_some());
        std::hint::black_box(plans.get(&pool[k].xpath, syms_len).is_some());
    });
    // One result lookup plus one plan lookup: what a cached `/query`
    // pays between parse and write.
    out.insert("server.cache.get_ns", ns);
    Ok(())
}

/// Runs every probe. `scratch` is a directory the compaction probe may
/// create and remove.
pub fn run(
    db: &Path,
    scratch: &Path,
    seed: u64,
    bulk: &[String],
    oracle: &mut Oracle,
    pool: &[QuerySpec],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    xml_and_prufer(bulk, &mut out)?;
    out.insert("prufer.refine_match_ns", refine(oracle, pool)?);
    buffer(db, &mut out)?;
    bptree(&mut out)?;
    segment(db, seed, &mut out)?;
    core(db, scratch, pool, &mut out)?;
    server(db, pool, &mut out)?;
    Ok(out)
}

/// Unit costs the set-up already measured: the bulk builder and the
/// library ingest of the feed tail with the pool counters around it.
pub fn from_setup(s: &setup::Setup, out: &mut BTreeMap<&'static str, f64>) {
    let batches = ((s.corpus.tail.len() + setup::BATCH_DOCS - 1) / setup::BATCH_DOCS) as f64;
    let tail_bytes: usize = s.corpus.tail.iter().map(|d| d.xml.len()).sum();
    // A WAL frame is a 24-byte header plus one page.
    let frame = (prix_storage::PAGE_SIZE + 24) as f64;
    out.insert(
        "core.segbuild.docs_per_s",
        s.corpus.bulk.len() as f64 / s.bulk_s,
    );
    out.insert(
        "core.snapshot.ingest_us_per_doc",
        s.tail_s * 1e6 / s.corpus.tail.len() as f64,
    );
    out.insert(
        "storage.pager.writes_per_batch",
        s.tail_io.physical_writes as f64 / batches,
    );
    out.insert(
        "storage.wal.fsyncs_per_batch",
        s.tail_io.fsyncs as f64 / batches,
    );
    out.insert(
        "storage.wal.appends_per_batch",
        s.tail_io.wal_appends as f64 / batches,
    );
    out.insert(
        "storage.wal.bytes_per_user_byte",
        s.tail_io.wal_appends as f64 * frame / tail_bytes as f64,
    );
}
