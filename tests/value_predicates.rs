//! Property tests for the value-predicate secondary index (valix): on
//! random value-bearing collections and random predicated twigs, the
//! predicate-filtered result set is **exactly** what post-filtering the
//! unfiltered structural matches yields — the probe pre-filter and the
//! positional verification never add, drop, or reorder anything.
//!
//! Runs on `prix-testkit` like `property_engines.rs`: each property is
//! a standalone `prop_*` function over a seeded generator, shared by
//! the random sweep (`check`) and the pinned replay seeds at the
//! bottom.

use std::sync::Arc;

use prix::core::index::{ExecOpts, IndexKind};
use prix::core::query::{PredOp, PredValue, TwigQuery, ValuePred};
use prix::core::{
    BulkBuilder, EngineConfig, PredEval, PrixEngine, QueryStats, SharedEngine, TwigMatch,
};
use prix::prufer::EdgeKind;
use prix::storage::{MemSegEnv, SegmentEnv};
use prix::xml::{Collection, NodeKind, PostNum, SymbolTable, XmlTree};
use prix_testkit::{check, from_fn, replay, Config, Generator, TestRng};

/// Leaf values mixing numerics (several of which collide under the
/// numeric opclass: `7e2` == `700`), skewed string ids, and text that
/// parses as nothing numeric at all.
const VALUES: [&str; 10] = [
    "5", "10.5", "-3", "1000", "700", "7e2", "x7", "x9", "abc", "price",
];

/// Numeric literals for generated predicates, chosen to land on, between,
/// and outside the `VALUES` numerics.
const NUM_LITS: [f64; 6] = [5.0, 10.0, 0.0, -3.0, 700.0, 999.5];

/// String literals for `=` / `starts-with` predicates.
const STR_LITS: [&str; 5] = ["x7", "x", "abc", "a", "zzz"];

/// Construction script for one node of a random tree (see
/// `property_engines.rs`): `value < VALUES.len()` additionally hangs a
/// text leaf with that value under the new node.
#[derive(Debug, Clone)]
struct Step {
    label: u8,
    descend: bool,
    ups: u8,
    value: u8,
}

fn gen_steps(rng: &mut TestRng, max_nodes: usize) -> Vec<Step> {
    let len = rng.range(1, max_nodes as u64 - 1) as usize;
    (0..len)
        .map(|_| Step {
            label: rng.below(5) as u8,
            descend: rng.chance(0.5),
            ups: rng.below(3) as u8,
            // ~60% of nodes carry a value leaf.
            value: rng.below(16) as u8,
        })
        .collect()
}

fn gen_doc_scripts(rng: &mut TestRng, max_docs: u64, max_nodes: usize) -> Vec<(u8, Vec<Step>)> {
    let n = rng.range(1, max_docs) as usize;
    (0..n)
        .map(|_| (rng.below(5) as u8, gen_steps(rng, max_nodes)))
        .collect()
}

/// A random predicate spec: which query node (by node-iteration index),
/// which operator, which literal.
type PredSpec = (u8, u8, u8);

/// A random predicated twig: tree script, edge picks, 1..=2 predicates.
fn gen_query_spec(rng: &mut TestRng, max_nodes: usize) -> (u8, Vec<Step>, Vec<u8>, Vec<PredSpec>) {
    let root = rng.below(5) as u8;
    let steps = gen_steps(rng, max_nodes);
    let edges = (0..=max_nodes).map(|_| rng.below(10) as u8).collect();
    let n_preds = rng.range(1, 2) as usize;
    let preds = (0..n_preds)
        .map(|_| (rng.below(16) as u8, rng.below(8) as u8, rng.below(8) as u8))
        .collect();
    (root, steps, edges, preds)
}

fn build_tree(root_label: u8, steps: &[Step], syms: &mut SymbolTable) -> XmlTree {
    let names = ["a", "b", "c", "d", "e"];
    let root = syms.intern(names[root_label as usize % 5]);
    let mut tree = XmlTree::with_root(root, NodeKind::Element);
    let mut stack = vec![tree.root()];
    for s in steps {
        let sym = syms.intern(names[s.label as usize % 5]);
        let cur = *stack.last().unwrap();
        let id = tree.add_child(cur, sym, NodeKind::Element);
        if (s.value as usize) < VALUES.len() {
            let v = syms.intern(VALUES[s.value as usize]);
            tree.add_child(id, v, NodeKind::Text);
        }
        if s.descend {
            stack.push(id);
        }
        for _ in 0..s.ups {
            if stack.len() > 1 {
                stack.pop();
            }
        }
    }
    tree.seal();
    tree
}

fn build_collection(scripts: &[(u8, Vec<Step>)]) -> Collection {
    let mut collection = Collection::new();
    for (root, steps) in scripts {
        let tree = {
            let syms = collection.symbols_mut();
            build_tree(*root, steps, syms)
        };
        collection.add_tree(tree);
    }
    collection
}

/// Resolves one predicate spec against a concrete query tree. The op
/// pick folds to the combinations the parser accepts: all six
/// comparisons on numerics, `=` and `starts-with` on strings.
fn make_pred(tree: &XmlTree, spec: PredSpec) -> ValuePred {
    let (node_pick, op_pick, lit_pick) = spec;
    let nodes: Vec<_> = tree.nodes().collect();
    let node = nodes[node_pick as usize % nodes.len()];
    let (op, value) = match op_pick % 8 {
        0 => (PredOp::Eq, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        1 => (PredOp::Ne, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        2 => (PredOp::Lt, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        3 => (PredOp::Le, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        4 => (PredOp::Gt, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        5 => (PredOp::Ge, PredValue::Num(NUM_LITS[lit_pick as usize % 6])),
        6 => (
            PredOp::Eq,
            PredValue::Str(STR_LITS[lit_pick as usize % 5].to_string()),
        ),
        _ => (
            PredOp::StartsWith,
            PredValue::Str(STR_LITS[lit_pick as usize % 5].to_string()),
        ),
    };
    ValuePred { node, op, value }
}

fn build_query(
    root_label: u8,
    steps: &[Step],
    edge_picks: &[u8],
    pred_specs: &[PredSpec],
    syms: &mut SymbolTable,
) -> TwigQuery {
    // Query twigs are structural-only (value leaves would force the
    // extended index); the value constraints ride in as predicates.
    let structural: Vec<Step> = steps
        .iter()
        .map(|s| Step {
            value: VALUES.len() as u8,
            ..s.clone()
        })
        .collect();
    let tree = build_tree(root_label, &structural, syms);
    let edges: Vec<EdgeKind> = (0..tree.len())
        .map(|i| match edge_picks[i % edge_picks.len()] % 10 {
            0..=6 => EdgeKind::Child,
            7 | 8 => EdgeKind::Descendant,
            _ => EdgeKind::Exactly(2),
        })
        .collect();
    let preds = pred_specs.iter().map(|&s| make_pred(&tree, s)).collect();
    TwigQuery::with_preds(tree, edges, false, preds)
}

/// The oracle: does `emb` satisfy every predicate of `q` in `tree`?
/// A predicate holds iff the predicate node's image has a leaf child
/// whose label text is accepted — the contract `PredEval::matches`
/// implements positionally from the stored sequences.
fn oracle_holds(tree: &XmlTree, syms: &SymbolTable, q: &TwigQuery, emb: &[PostNum]) -> bool {
    q.preds().iter().all(|p| {
        let img = emb[(q.tree().postorder(p.node) - 1) as usize];
        tree.nodes()
            .find(|&n| tree.postorder(n) == img)
            .is_some_and(|n| {
                tree.children(n)
                    .iter()
                    .any(|&c| tree.is_leaf(c) && p.accepts(syms.name(tree.label(c))))
            })
    })
}

/// Post-filters an unfiltered outcome through the oracle, preserving
/// order — what the filtered run must be bit-identical to.
fn oracle_filter(
    collection: &Collection,
    syms: &SymbolTable,
    q: &TwigQuery,
    unfiltered: &[TwigMatch],
) -> Vec<TwigMatch> {
    unfiltered
        .iter()
        .filter(|m| oracle_holds(collection.doc(m.doc), syms, q, &m.embedding))
        .cloned()
        .collect()
}

type PredInput = (
    Vec<(u8, Vec<Step>)>,
    (u8, Vec<Step>, Vec<u8>, Vec<PredSpec>),
);

fn gen_pred_input() -> impl Generator<Value = PredInput> {
    from_fn(|rng| (gen_doc_scripts(rng, 3, 12), gen_query_spec(rng, 5)))
}

/// The tentpole equivalence, across both index kinds: forcing RP and
/// forcing EP, the predicated query returns exactly the post-filtered
/// unfiltered matches, in the same order.
fn prop_filtered_equals_postfiltered(input: &PredInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges, pred_specs)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, pred_specs, &mut syms);
    let bare = q.without_preds();

    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let opts = ExecOpts::new();
    // §5.6's own routing through the engine view; a forced kind
    // straight on that index of this single-tier engine (the bulk
    // tier: the delta is empty), with the evaluator the view would
    // build.
    let run = |query: &TwigQuery, force: Option<IndexKind>| -> (Vec<TwigMatch>, QueryStats) {
        let idx = match force {
            None => {
                let out = snap.query_opts(query, &opts).unwrap();
                return (out.matches, out.stats);
            }
            Some(kind) => engine.seg_tiers()[0].index_of(kind),
        };
        let pred = PredEval::build(query, engine.seg_tiers(), snap.symbols()).unwrap();
        let mut stream = idx.stream(query, &opts, pred.as_ref()).unwrap();
        let mut matches = Vec::new();
        while let Some(m) = stream.next_match().unwrap() {
            matches.push(m);
        }
        (matches, stream.stats())
    };
    for force in [None, Some(IndexKind::Regular), Some(IndexKind::Extended)] {
        if force == Some(IndexKind::Regular) && bare.needs_extended() {
            continue; // Exactly-edge leaves and single-node twigs are EP-only
        }
        let (unfiltered, unfiltered_stats) = run(&bare, force);
        let (filtered, filtered_stats) = run(&q, force);
        let expect = oracle_filter(&collection, &syms, &q, &unfiltered);
        assert_eq!(
            filtered, expect,
            "force={force:?}: filtered != post-filtered"
        );
        // The pre-filter may only ever *save* work.
        assert!(filtered_stats.candidates <= unfiltered_stats.candidates);
    }
    Ok(())
}

#[test]
fn filtered_equals_postfiltered() {
    check(
        "filtered_equals_postfiltered",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_pred_input(),
        prop_filtered_equals_postfiltered,
    );
}

/// Limit pushdown composes with predicates: `limit = k` on a predicated
/// query is the k-prefix of the unlimited predicated stream.
fn prop_predicate_limit_is_prefix(input: &PredInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges, pred_specs)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, pred_specs, &mut syms);

    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let all = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    for k in [0, 1, 2, all.matches.len(), all.matches.len() + 3] {
        let out = snap.query_opts(&q, &ExecOpts::new().with_limit(k)).unwrap();
        let expect: Vec<_> = all.matches.iter().take(k).cloned().collect();
        assert_eq!(out.matches, expect, "limit {k} is not a prefix");
    }
    Ok(())
}

#[test]
fn predicate_limit_is_prefix() {
    check(
        "predicate_limit_is_prefix",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_pred_input(),
        prop_predicate_limit_is_prefix,
    );
}

/// Unordered (§5.7 arrangement) matching filters identically: the
/// predicate evaluator is remapped per arrangement, and the merged,
/// sorted result equals post-filtering the unfiltered unordered run.
fn prop_unordered_filters_identically(input: &PredInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges, pred_specs)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, pred_specs, &mut syms);
    let bare = q.without_preds();

    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let unfiltered = snap.query_unordered_opts(&bare, &ExecOpts::new()).unwrap();
    let filtered = snap.query_unordered_opts(&q, &ExecOpts::new()).unwrap();
    let expect = oracle_filter(&collection, &syms, &q, &unfiltered.matches);
    assert_eq!(filtered.matches, expect);
    Ok(())
}

#[test]
fn unordered_filters_identically() {
    let gen = from_fn(|rng| (gen_doc_scripts(rng, 2, 10), gen_query_spec(rng, 4)));
    check(
        "unordered_filters_identically",
        &Config {
            cases: 32,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen,
        prop_unordered_filters_identically,
    );
}

/// Incremental insertion maintains the valix: an engine grown with
/// `insert_document` answers predicate queries exactly like a bulk
/// build of the same documents.
fn prop_insert_maintains_valix(input: &PredInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges, pred_specs)) = input;
    if doc_scripts.len() < 2 {
        return Ok(());
    }
    let (base_scripts, added_scripts) = doc_scripts.split_at(1);
    let base = build_collection(base_scripts);
    let mut full = base.clone();
    let mut added_xml: Vec<String> = Vec::new();
    for (root, steps) in added_scripts {
        let tree = {
            let syms = full.symbols_mut();
            build_tree(*root, steps, syms)
        };
        added_xml.push(prix::xml::write_document(&tree, full.symbols()));
        full.add_tree(tree);
    }

    let mut incremental = PrixEngine::build(
        base,
        EngineConfig {
            ..Default::default()
        },
    )
    .unwrap();
    for xml in &added_xml {
        match incremental.insert_document(xml) {
            Ok(_) => {}
            Err(e) => panic!("unexpected insert failure: {e}"),
        }
    }

    let mut syms = incremental.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, pred_specs, &mut syms);
    let bare = q.without_preds();
    let snap = incremental.snapshot();
    let unfiltered = snap.query(&bare).unwrap();
    let filtered = snap.query(&q).unwrap();
    // The oracle reads `full`: the same documents in the same order,
    // labels resolved by name through its own table.
    let expect = oracle_filter(&full, full.symbols(), &q, &unfiltered.matches);
    assert_eq!(filtered.matches, expect);
    Ok(())
}

#[test]
fn insert_maintains_valix() {
    check(
        "insert_maintains_valix",
        &Config::cases(24),
        &gen_pred_input(),
        prop_insert_maintains_valix,
    );
}

// ---------------------------------------------------------------------
// The tiered value index: runs below, a verified delta on top, one
// answer.
// ---------------------------------------------------------------------

type QuerySpec = (u8, Vec<Step>, Vec<u8>, Vec<PredSpec>);

/// Checks a tiered engine against the single-tree oracle — an engine
/// built in one piece over the same documents, whose value index is
/// one run — and that one against the naive post-filter: the probe's
/// pre-filter document by document (the oracle's below where the tiers
/// end, every document at or past it), its counters (one probe per
/// probeable predicate; with no delta, every matching posting seen
/// exactly once however the postings are split over runs), the matches.
fn check_against_single_tree(
    engine: &PrixEngine,
    docs: &[String],
    spec: &QuerySpec,
    step: &str,
) -> Result<(), String> {
    let mut collection = Collection::new();
    for xml in docs {
        collection
            .add_xml(xml)
            .map_err(|e| format!("{step}: {e}"))?;
    }
    let oracle = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let (root, steps, edges, preds) = spec;
    let q_tiered = build_query(*root, steps, edges, preds, &mut engine.symbols().clone());
    let q_oracle = build_query(*root, steps, edges, preds, &mut oracle.symbols().clone());

    fn pe<'e>(e: &'e PrixEngine, q: &TwigQuery) -> PredEval<'e> {
        PredEval::build(q, e.seg_tiers(), e.symbols())
            .unwrap()
            .expect("the generator plants a predicate")
    }
    let (pe_tiered, pe_oracle) = (pe(engine, &q_tiered), pe(&oracle, &q_oracle));
    // The delta's documents have no postings: the pre-filter admits
    // them all, and its estimate counts only the tiers' documents.
    let end = engine.segment_docs() as u32;
    let ids = 0..docs.len() as u32 + 2;
    let allowed = |p: &PredEval| -> Vec<bool> { ids.clone().map(|d| p.allows(d)).collect() };
    let want_allowed: Vec<bool> = ids
        .clone()
        .map(|d| d >= end || pe_oracle.allows(d))
        .collect();
    let want_estimate = pe_oracle
        .estimate()
        .map(|_| ((0..end).filter(|&d| pe_oracle.allows(d)).count(), end));
    if allowed(&pe_tiered) != want_allowed || pe_tiered.estimate() != want_estimate {
        return Err(format!(
            "{step}: pre-filter {:?} {:?}, single tree below {end} {:?} {:?}",
            pe_tiered.estimate(),
            allowed(&pe_tiered),
            want_estimate,
            want_allowed
        ));
    }

    let out = engine.snapshot().query(&q_tiered).unwrap();
    let want = oracle.snapshot().query(&q_oracle).unwrap();
    let probe = |s: &QueryStats| match engine.mutable_docs() {
        0 => (s.valix_probes, s.valix_postings),
        _ => (s.valix_probes, 0),
    };
    if out.matches != want.matches || probe(&out.stats) != probe(&want.stats) {
        return Err(format!(
            "{step}: {} match(es), probe {:?}; single tree {} match(es), probe {:?}",
            out.matches.len(),
            probe(&out.stats),
            want.matches.len(),
            probe(&want.stats)
        ));
    }
    let unfiltered = oracle.snapshot().query(&q_oracle.without_preds()).unwrap();
    let naive = oracle_filter(
        &collection,
        oracle.symbols(),
        &q_oracle,
        &unfiltered.matches,
    );
    if out.matches != naive {
        return Err(format!("{step}: answer differs from the naive post-filter"));
    }
    Ok(())
}

/// Ingests `batch`, commits, and appends what was accepted to `docs`
/// (dynamic labeling may refuse a shape; the oracle gets what went in).
fn ingest_accepted(engine: &mut PrixEngine, batch: &[String], docs: &mut Vec<String>) {
    let out = engine.ingest_batch(batch).unwrap();
    let rejected: Vec<usize> = out.rejected.iter().map(|(i, _)| *i).collect();
    docs.extend(
        batch
            .iter()
            .enumerate()
            .filter(|(i, _)| !rejected.contains(i))
            .map(|(_, d)| d.clone()),
    );
    engine.save().unwrap();
}

/// The value index through a database's whole life: a first tier (a
/// bulk build's run, or a pool-tier delta when `bulk` is off), an
/// ingested delta on top, a compaction (the delta's records become a
/// run), more delta, a second compaction under a pinned reader, and a
/// reopen from the files — the single-tree oracle after every step.
fn prop_tiered_valix_equals_single_tree(
    input: &(Vec<(u8, Vec<Step>)>, QuerySpec, bool),
) -> Result<(), String> {
    let (scripts, spec, bulk) = input;
    let mut syms = SymbolTable::new();
    let xml: Vec<String> = scripts
        .iter()
        .map(|(root, steps)| prix::xml::write_document(&build_tree(*root, steps, &mut syms), &syms))
        .collect();
    let third = (xml.len() / 3).max(1);
    let (first, rest) = xml.split_at(third.min(xml.len()));
    let (second, last) = rest.split_at(third.min(rest.len()));

    let cfg = EngineConfig {
        buffer_pages: 64,
        ..Default::default()
    };
    let env: Arc<dyn SegmentEnv> = Arc::new(MemSegEnv::new());
    let mut docs: Vec<String> = first.to_vec();
    let mut engine = if *bulk {
        let mut b = BulkBuilder::with_env(cfg.clone(), Arc::clone(&env)).unwrap();
        for d in first {
            b.add_xml(d).unwrap();
        }
        b.finish().unwrap()
    } else {
        let mut c = Collection::new();
        for d in first {
            c.add_xml(d).unwrap();
        }
        let mut e = PrixEngine::build_env(c, cfg, Arc::clone(&env)).unwrap();
        e.save().unwrap();
        e
    };
    check_against_single_tree(&engine, &docs, spec, "first tier")?;
    ingest_accepted(&mut engine, second, &mut docs);
    check_against_single_tree(&engine, &docs, spec, "first ingest")?;
    engine.compact().unwrap();
    if engine.mutable_docs() != 0 {
        return Err("a compaction leaves documents in the delta".into());
    }
    check_against_single_tree(&engine, &docs, spec, "first compaction")?;
    ingest_accepted(&mut engine, last, &mut docs);
    check_against_single_tree(&engine, &docs, spec, "second ingest")?;

    // A reader pinned before the second compaction answers the same
    // after it, probes and all: its tiers and its delta are the old
    // ones. A fresh reader probes the delta's documents in the new run
    // and answers the same.
    let (root, steps, edges, preds) = spec;
    let q = build_query(*root, steps, edges, preds, &mut engine.symbols().clone());
    let shared = SharedEngine::new(engine);
    let pinned = shared.snapshot();
    let answer =
        |o: prix::core::QueryOutcome| (o.matches, o.stats.valix_probes, o.stats.valix_postings);
    let before = answer(pinned.query(&q).unwrap());
    shared.compact().unwrap();
    if answer(pinned.query(&q).unwrap()) != before {
        return Err("a pinned reader's answer changed across a compaction".into());
    }
    if shared.snapshot().query(&q).unwrap().matches != before.0 {
        return Err("a fresh reader's answer changed across a compaction".into());
    }
    drop(pinned);
    drop(shared);

    let engine = PrixEngine::reopen_env(env, 64).map_err(|e| format!("reopen: {e}"))?;
    if engine.segment_docs() != docs.len() as u64 {
        return Err(format!(
            "reopened {} segment documents of {}",
            engine.segment_docs(),
            docs.len()
        ));
    }
    engine.verify_tiers().map_err(|e| e.to_string())?;
    check_against_single_tree(&engine, &docs, spec, "reopen")
}

fn gen_lifecycle_input() -> impl Generator<Value = (Vec<(u8, Vec<Step>)>, QuerySpec, bool)> {
    from_fn(|rng| {
        let mut scripts = gen_doc_scripts(rng, 12, 9);
        scripts.extend(gen_doc_scripts(rng, 3, 9));
        (scripts, gen_query_spec(rng, 4), rng.chance(0.5))
    })
}

#[test]
fn tiered_valix_equals_single_tree_through_the_lifecycle() {
    check(
        "tiered_valix_equals_single_tree",
        &Config {
            cases: 40,
            max_shrink_iters: 100,
            ..Default::default()
        },
        &gen_lifecycle_input(),
        prop_tiered_valix_equals_single_tree,
    );
}

/// Predicate pushdown pays in reads: on the shop scenario (uniform
/// prices in [10, 1000)) `//item[price < 20]` keeps ~1% of the items.
/// Probing the value index and skipping refinement for the rest must
/// read strictly fewer blocks than running the bare twig and filtering
/// its matches afterwards (the only way without a value index), with
/// the identical answer; and `limit 10` must widen the gap, because
/// the filtered stream stops after ten verified matches while the
/// baseline still pays for the whole structural answer. Counters from
/// cold caches, not wall clock.
#[test]
fn selective_predicate_reads_fewer_pages_than_match_then_filter() {
    use prix::datagen::values::{generate, ShopConfig};
    let collection = generate(&ShopConfig {
        records: 3000,
        seed: 42,
    });
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query("//item[price < 20]").unwrap();
    let bare = q.without_preds();
    let cold = |q: &TwigQuery, opts: &ExecOpts| {
        engine.clear_cache().unwrap();
        snap.query_opts(q, opts).unwrap()
    };

    let unlimited = ExecOpts::new();
    let pushed = cold(&q, &unlimited);
    let structural = cold(&bare, &unlimited);
    let filtered = oracle_filter(&collection, collection.symbols(), &q, &structural.matches);
    assert_eq!(pushed.matches, filtered, "identical answers both ways");
    let selectivity = pushed.matches.len() as f64 / structural.matches.len() as f64;
    assert!(
        (0.002..0.03).contains(&selectivity),
        "{} of {} items: not the ~1% case",
        pushed.matches.len(),
        structural.matches.len()
    );
    assert!(pushed.stats.valix_probes > 0 && pushed.stats.pred_skipped > 0);
    let (pred_reads, base_reads) = (pushed.io.seg_block_reads, structural.io.seg_block_reads);
    assert!(
        pred_reads < base_reads,
        "the predicate must read strictly fewer blocks: {pred_reads} vs {base_reads}"
    );

    // The baseline cannot push a limit below its post-filter, so its
    // cost is flat; the predicate path's must not grow, which is what
    // widens the gap.
    let limited = cold(&q, &ExecOpts::new().with_limit(10));
    assert_eq!(limited.matches.len(), 10);
    assert!(limited.matches.iter().all(|m| pushed.matches.contains(m)));
    let lim_reads = limited.io.seg_block_reads;
    assert!(
        lim_reads <= pred_reads && lim_reads < base_reads,
        "limit 10 reads {lim_reads}, unlimited {pred_reads}, baseline {base_reads}"
    );
}

// ---------------------------------------------------------------------
// Parser fuzz: malformed predicates are reported errors, never panics,
// and whatever parses round-trips through the display form.
// ---------------------------------------------------------------------

/// Fragments recombined into plausible-but-often-broken predicate
/// XPaths.
const FRAGMENTS: [&str; 18] = [
    "//book",
    "/a",
    "[",
    "]",
    "price",
    "<",
    "<=",
    "=",
    "!=",
    "10",
    "\"x7",
    "\"x7\"",
    "starts-with(",
    "@id",
    ",",
    ")",
    ".",
    "text()",
];

fn gen_fuzz_xpath() -> impl Generator<Value = String> {
    from_fn(|rng| {
        let n = rng.range(1, 8) as usize;
        let mut s = String::new();
        for _ in 0..n {
            s.push_str(FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]);
        }
        s
    })
}

fn prop_parser_never_panics(xpath: &str) -> Result<(), String> {
    let mut syms = SymbolTable::new();
    // Err is fine (expected for most recombinations); what matters is
    // that parsing returns rather than panicking, and that successful
    // parses render back to a stable display form.
    if let Ok(q) = prix::core::parse_xpath(xpath, &mut syms) {
        // Rendering must not panic either ("text()" alone legally
        // displays as the empty twig, so emptiness is not asserted).
        let _ = q.display(&syms);
    }
    Ok(())
}

#[test]
fn parser_never_panics_on_malformed_predicates() {
    check(
        "parser_never_panics_on_malformed_predicates",
        &Config::cases(500),
        &gen_fuzz_xpath(),
        |s| prop_parser_never_panics(s),
    );
}

// ---------------------------------------------------------------------
// Pinned replay seeds: one frozen, deterministic input per property.
// ---------------------------------------------------------------------

#[test]
fn regression_seed_filtered_equals_postfiltered() {
    replay(
        0x5EED_0101,
        &gen_pred_input(),
        prop_filtered_equals_postfiltered,
    );
}

#[test]
fn regression_seed_predicate_limit_is_prefix() {
    replay(
        0x5EED_0102,
        &gen_pred_input(),
        prop_predicate_limit_is_prefix,
    );
}

#[test]
fn regression_seed_unordered_filters_identically() {
    replay(
        0x5EED_0103,
        &gen_pred_input(),
        prop_unordered_filters_identically,
    );
}

#[test]
fn regression_seed_insert_maintains_valix() {
    replay(0x5EED_0104, &gen_pred_input(), prop_insert_maintains_valix);
}

#[test]
fn regression_seed_parser_fuzz() {
    replay(0x5EED_0105, &gen_fuzz_xpath(), |s| {
        prop_parser_never_panics(s)
    });
}
