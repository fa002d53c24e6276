//! Property tests: on random collections and random twig queries, every
//! engine agrees with the naive oracle — the executable version of the
//! paper's correctness claim ("all correct answers are found without
//! any false dismissals or false alarms", §1).
//!
//! Runs on `prix-testkit` (see its crate docs): each property is a
//! standalone `prop_*` function over inputs from a seeded generator, so
//! the same function serves the random sweep (`check`) and the pinned
//! regression seeds at the bottom of this file (`replay`).

mod support;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use prix::core::query::{PredOp, PredValue, TwigQuery, ValuePred};
use prix::core::{naive, EngineConfig, IndexKind, PrixEngine};
use prix::prufer::EdgeKind;
use prix::storage::{BufferPool, Pager};
use prix::twigstack::{encode_collection, Algorithm, StreamStore, TwigJoin};
use prix::vist::VistIndex;
use prix::xml::{Collection, NodeId, NodeKind, PostNum, Sym, SymbolTable, XmlTree};
use prix_testkit::{check, from_fn, replay, Config, Generator, TestRng};
use support::scan;

/// Construction script for a random tree: each step adds a node under
/// the current cursor. `descend` controls whether the cursor moves into
/// the new node; `ups` pops the cursor afterwards.
#[derive(Debug, Clone)]
struct Step {
    label: u8,
    descend: bool,
    ups: u8,
}

fn step(label: u8, descend: bool, ups: u8) -> Step {
    Step {
        label,
        descend,
        ups,
    }
}

fn gen_steps(rng: &mut TestRng, max_nodes: usize) -> Vec<Step> {
    let len = rng.range(1, max_nodes as u64 - 1) as usize;
    (0..len)
        .map(|_| Step {
            label: rng.below(5) as u8,
            descend: rng.chance(0.5),
            ups: rng.below(3) as u8,
        })
        .collect()
}

/// A random document set: 1..=`max_docs` construction scripts.
fn gen_doc_scripts(rng: &mut TestRng, max_docs: u64, max_nodes: usize) -> Vec<(u8, Vec<Step>)> {
    let n = rng.range(1, max_docs) as usize;
    (0..n)
        .map(|_| (rng.below(5) as u8, gen_steps(rng, max_nodes)))
        .collect()
}

/// A random twig query: a tree script plus edge choices.
fn gen_query_spec(rng: &mut TestRng, max_nodes: usize) -> (u8, Vec<Step>, Vec<u8>) {
    let root = rng.below(5) as u8;
    let steps = gen_steps(rng, max_nodes);
    let edges = (0..=max_nodes).map(|_| rng.below(10) as u8).collect();
    (root, steps, edges)
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

/// `descendants = false` maps every pick to `/` or `*{2}` edges.
///
/// Why the distinction: for queries with `//` edges meeting at a
/// branching node, the paper's frequency-consistency condition
/// (Definition 4) pins the branch node's image to one common ancestor,
/// so PRIX enumerates *fewer embeddings* than a per-ancestor oracle
/// while still finding every matching document. Embedding-set equality
/// is therefore only asserted for `//`-free queries; `//` queries get
/// the subset + document-set properties below.
fn build_query(
    root_label: u8,
    steps: &[Step],
    edge_picks: &[u8],
    descendants: bool,
    syms: &mut SymbolTable,
) -> TwigQuery {
    let tree = build_tree(root_label, steps, syms);
    let edges: Vec<EdgeKind> = (0..tree.len())
        .map(|i| match edge_picks[i % edge_picks.len()] % 10 {
            0..=6 => EdgeKind::Child,
            7 | 8 if descendants => EdgeKind::Descendant,
            7 | 8 => EdgeKind::Child,
            _ => EdgeKind::Exactly(2),
        })
        .collect();
    TwigQuery::new(tree, edges, false)
}

fn matches_as_set(matches: &[prix::core::TwigMatch]) -> Vec<(u32, Vec<PostNum>)> {
    let mut v: Vec<(u32, Vec<PostNum>)> = matches
        .iter()
        .map(|m| (m.doc, m.embedding.clone()))
        .collect();
    v.sort();
    v
}

fn naive_as_set(collection: &Collection, q: &TwigQuery) -> Vec<(u32, Vec<PostNum>)> {
    let mut v: Vec<(u32, Vec<PostNum>)> = Vec::new();
    for (doc, tree) in collection.iter() {
        for emb in naive::naive_ordered(tree, q) {
            v.push((doc, emb));
        }
    }
    v.sort();
    v
}

// ---------------------------------------------------------------------
// Engine-agreement properties (documents × query).
// ---------------------------------------------------------------------

type EngineInput = (Vec<(u8, Vec<Step>)>, (u8, Vec<Step>, Vec<u8>));

fn gen_engine_input() -> impl Generator<Value = EngineInput> {
    from_fn(|rng| (gen_doc_scripts(rng, 3, 14), gen_query_spec(rng, 5)))
}

/// PRIX (its bulk-built tier), the scan matcher, TwigStack and ViST
/// all equal the oracle on random inputs.
fn prop_all_engines_equal_oracle(input: &EngineInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, false, &mut syms);

    let expected = naive_as_set(&collection, &q);

    // Scan matcher.
    let dummy = {
        let mut s2 = syms.clone();
        s2.intern("\u{1}dummy")
    };
    let scan_set = matches_as_set(&scan::scan_matches(&collection, &q, dummy));
    assert_eq!(&scan_set, &expected, "scan vs oracle");

    // PRIX engine.
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let out = engine.snapshot().query(&q).unwrap();
    assert_eq!(matches_as_set(&out.matches), expected, "PRIX vs oracle");

    // TwigStack.
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 128));
    let raw = encode_collection(&collection);
    let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
    let ts = TwigJoin::new(&streams)
        .execute(&q, Algorithm::TwigStack)
        .unwrap();
    assert_eq!(ts.stats.matches as usize, expected.len(), "TwigStack count");

    // ViST (verified) — and no false dismissals in the native set.
    let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 128));
    let vist = VistIndex::build(vist_pool, &collection).unwrap();
    let vo = vist.execute(&q, &collection).unwrap();
    assert_eq!(
        vo.verified_matches as usize,
        expected.len(),
        "ViST verified"
    );
    for (doc, _) in &expected {
        assert!(vo.candidate_docs.contains(doc), "ViST false dismissal");
    }
    Ok(())
}

#[test]
fn all_engines_equal_oracle() {
    check(
        "all_engines_equal_oracle",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_engine_input(),
        prop_all_engines_equal_oracle,
    );
}

/// Queries with `//` edges: PRIX reports a subset of the oracle's
/// embeddings (no false alarms) and exactly the oracle's *document*
/// set (no false dismissals) — embedding multiplicity can legally
/// differ when `//` branches meet (see `build_query`).
fn prop_descendant_queries(input: &EngineInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, true, &mut syms);

    let oracle = naive_as_set(&collection, &q);
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let prix = matches_as_set(&engine.snapshot().query(&q).unwrap().matches);
    // No false alarms: every PRIX embedding is a real embedding.
    for m in &prix {
        assert!(oracle.contains(m), "false alarm: {m:?}");
    }
    // No document-level false dismissals (and none invented).
    let docs = |set: &[(u32, Vec<PostNum>)]| {
        let mut d: Vec<u32> = set.iter().map(|(doc, _)| *doc).collect();
        d.dedup();
        d
    };
    assert_eq!(docs(&prix), docs(&oracle));
    // The scan matcher implements identical semantics.
    let dummy = {
        let mut s2 = syms.clone();
        s2.intern("\u{1}dummy")
    };
    let scan_set = matches_as_set(&scan::scan_matches(&collection, &q, dummy));
    assert_eq!(scan_set, prix);
    // TwigStack's merge enumerates every ancestor combination, so
    // it matches the oracle exactly even here.
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 128));
    let raw = encode_collection(&collection);
    let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
    let ts = TwigJoin::new(&streams)
        .execute(&q, Algorithm::TwigStack)
        .unwrap();
    assert_eq!(
        ts.stats.matches as usize,
        oracle.len(),
        "TwigStack vs oracle"
    );
    Ok(())
}

#[test]
fn descendant_queries_no_false_alarms_or_dismissals() {
    check(
        "descendant_queries_no_false_alarms_or_dismissals",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_engine_input(),
        prop_descendant_queries,
    );
}

/// The MaxGap pruning (Theorem 4) never changes results.
fn prop_maxgap_is_lossless(input: &EngineInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, true, &mut syms);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    use prix::core::index::ExecOpts;
    let with = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    let without = snap
        .query_opts(&q, &ExecOpts::new().without_maxgap())
        .unwrap();
    assert_eq!(
        matches_as_set(&with.matches),
        matches_as_set(&without.matches)
    );
    assert!(with.stats.nodes_scanned <= without.stats.nodes_scanned);
    Ok(())
}

#[test]
fn maxgap_is_lossless() {
    let gen = from_fn(|rng| (gen_doc_scripts(rng, 2, 14), gen_query_spec(rng, 5)));
    check(
        "maxgap_is_lossless",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen,
        prop_maxgap_is_lossless,
    );
}

/// Limit pushdown is sound: on random trees and twigs, `limit = k`
/// returns exactly the first `k` matches of the unlimited streaming
/// order, never does more filtering work, and the arrival-order match
/// set equals the unlimited answer.
fn prop_limit_is_prefix_of_unlimited(input: &EngineInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, true, &mut syms);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    use prix::core::index::ExecOpts;

    let unlimited = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    assert!(!unlimited.truncated);

    // The whole answer in trie-arrival order (a limit no stream
    // reaches asks for that order), off the build's tier's index §5.6
    // routes the query to: same match set as the unlimited run.
    let kind = if q.needs_extended() {
        IndexKind::Extended
    } else {
        IndexKind::Regular
    };
    let idx = engine.seg_tiers()[0].index_of(kind);
    let arrival = ExecOpts::new().with_limit(usize::MAX);
    let mut stream = idx.stream(&q, &arrival, None).unwrap();
    let mut streamed = Vec::new();
    while let Some(m) = stream.next_match().unwrap() {
        streamed.push(m);
    }
    assert_eq!(
        matches_as_set(&streamed),
        matches_as_set(&unlimited.matches),
        "arrival-order vs unlimited match set"
    );

    for k in 0..=streamed.len() + 1 {
        let out = snap.query_opts(&q, &ExecOpts::new().with_limit(k)).unwrap();
        let expect: Vec<_> = streamed.iter().take(k).cloned().collect();
        assert_eq!(out.matches, expect, "limit {k} is not a prefix");
        assert_eq!(
            out.truncated,
            k <= streamed.len(),
            "limit {k} truncated flag"
        );
        // Never more work than the full run.
        assert!(out.stats.range_queries <= unlimited.stats.range_queries);
        assert!(out.stats.nodes_scanned <= unlimited.stats.nodes_scanned);
        assert!(out.stats.candidates <= unlimited.stats.candidates);
    }
    Ok(())
}

#[test]
fn limit_is_prefix_of_unlimited() {
    check(
        "limit_is_prefix_of_unlimited",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_engine_input(),
        prop_limit_is_prefix_of_unlimited,
    );
}

// ---------------------------------------------------------------------
// Value twigs: the candidates a tier's value run anchors.
// ---------------------------------------------------------------------

/// One node of a value document's script: `text` makes a leaf a text
/// node (never right after a text sibling, which XML would merge), and
/// a node the script descends into is labelled from `a`–`c` alone, so
/// `d` and `e` only ever label leaves.
#[derive(Debug, Clone)]
struct ValueStep {
    label: u8,
    text: bool,
    descend: bool,
    ups: u8,
}

fn gen_value_steps(rng: &mut TestRng, max_nodes: usize) -> Vec<ValueStep> {
    let len = rng.range(1, max_nodes as u64 - 1) as usize;
    (0..len)
        .map(|_| ValueStep {
            label: if rng.chance(0.85) {
                3 + rng.below(2)
            } else {
                rng.below(5)
            } as u8,
            text: rng.chance(0.5),
            descend: rng.chance(0.4),
            ups: rng.below(3) as u8,
        })
        .collect()
}

/// A document of the five-letter alphabet whose leaves are childless
/// elements or text nodes alike.
fn build_value_tree(root: u8, steps: &[ValueStep], syms: &mut SymbolTable) -> XmlTree {
    let names = ["a", "b", "c", "d", "e"];
    let mut tree = XmlTree::with_root(syms.intern(names[root as usize % 3]), NodeKind::Element);
    let mut stack = vec![tree.root()];
    for s in steps {
        let cur = *stack.last().unwrap();
        let after_text = tree
            .children(cur)
            .last()
            .is_some_and(|&c| tree.kind(c) == NodeKind::Text);
        let id = if s.descend {
            let sym = syms.intern(names[s.label as usize % 3]);
            tree.add_child(cur, sym, NodeKind::Element)
        } else {
            let kind = if s.text && !after_text {
                NodeKind::Text
            } else {
                NodeKind::Element
            };
            tree.add_child(cur, syms.intern(names[s.label as usize % 5]), kind)
        };
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

/// A twig's shape: a label and the children.
struct Shape {
    name: String,
    kids: Vec<Shape>,
}

impl Shape {
    /// `node`'s subtree in `tree`, two children a node at most, cut
    /// `depth` levels below it.
    fn of(tree: &XmlTree, node: NodeId, syms: &SymbolTable, depth: usize) -> Shape {
        let kids = tree
            .children(node)
            .iter()
            .take(if depth > 0 { 2 } else { 0 });
        Shape {
            name: syms.name(tree.label(node)).to_string(),
            kids: kids.map(|&c| Shape::of(tree, c, syms, depth - 1)).collect(),
        }
    }

    /// The value twig of this shape: every edge `/`, every inner node
    /// an element and every leaf a text node — but, with
    /// `element_leaf`, the first leaf stays an element, so no tier
    /// anchors the twig.
    fn twig(&self, element_leaf: bool, syms: &mut SymbolTable) -> TwigQuery {
        let mut tree = XmlTree::with_root(syms.intern(&self.name), NodeKind::Element);
        let (mut todo, mut leaves) = (vec![(self, tree.root())], 0);
        while let Some((from, to)) = todo.pop() {
            for c in &from.kids {
                let kind = match c.kids.is_empty() {
                    true if !(element_leaf && leaves == 0) => NodeKind::Text,
                    _ => NodeKind::Element,
                };
                leaves += usize::from(c.kids.is_empty());
                todo.push((c, tree.add_child(to, syms.intern(&c.name), kind)));
            }
        }
        tree.seal();
        let edges = vec![EdgeKind::Child; tree.len()];
        TwigQuery::new(tree, edges, false)
    }
}

/// Where a value twig comes from: a subtree of one of the documents
/// (`sample`: which document, which inner node), so it often matches, or a
/// shape script whose inner nodes take `a`–`c` and whose leaves take
/// `values` — `d` or `e` mostly, whose tiers anchor, `a`–`c` now and
/// then, whose tiers descend the trie.
#[derive(Debug, Clone)]
struct ValueQuery {
    sample: Option<(u8, u8)>,
    root: u8,
    steps: Vec<Step>,
    values: Vec<u8>,
    element_leaf: bool,
}

impl ValueQuery {
    fn shape(&self, collection: &Collection) -> Shape {
        if let Some((d, n)) = self.sample {
            let tree = collection.doc(u32::from(d) % collection.len() as u32);
            let inner: Vec<NodeId> = tree.nodes().filter(|&n| !tree.is_leaf(n)).collect();
            let node = inner.get(usize::from(n) % inner.len().max(1));
            return Shape::of(tree, *node.unwrap_or(&tree.root()), collection.symbols(), 3);
        }
        let mut syms = SymbolTable::new();
        let tree = build_tree(self.root, &self.steps, &mut syms);
        let names = ["a", "b", "c", "d", "e"];
        let mut leaves = 0;
        fn walk(t: &XmlTree, n: NodeId, label: &mut dyn FnMut(NodeId) -> String) -> Shape {
            let kids = t.children(n).iter().map(|&c| walk(t, c, label)).collect();
            Shape {
                name: label(n),
                kids,
            }
        }
        walk(&tree, tree.root(), &mut |n| {
            if tree.is_leaf(n) && n != tree.root() {
                leaves += 1;
                names[self.values[leaves % self.values.len()] as usize % 5].to_string()
            } else {
                names[(syms.name(tree.label(n)).as_bytes()[0] - b'a') as usize % 3].to_string()
            }
        })
    }
}

/// Documents split in three (bulk, ingest then compact, ingest into the
/// delta) and a value twig.
type ValueInput = (Vec<(u8, Vec<ValueStep>)>, (usize, usize), ValueQuery);

fn gen_value_input() -> impl Generator<Value = ValueInput> {
    from_fn(|rng| {
        let docs: Vec<_> = (0..rng.range(1, 6))
            .map(|_| (rng.below(3) as u8, gen_value_steps(rng, 14)))
            .collect();
        let cut = rng.below(docs.len() as u64 + 1) as usize;
        let cut2 = cut + rng.below((docs.len() - cut) as u64 + 1) as usize;
        let query = ValueQuery {
            sample: rng
                .chance(0.6)
                .then(|| (rng.below(8) as u8, rng.below(16) as u8)),
            root: rng.below(3) as u8,
            steps: gen_steps(rng, 5),
            values: (0..4)
                .map(|_| if rng.chance(0.8) { 3 + rng.below(2) } else { rng.below(3) } as u8)
                .collect(),
            element_leaf: rng.chance(0.2),
        };
        (docs, (cut, cut2), query)
    })
}

/// Value twigs answer alike whether their candidates come from the
/// value run or the trie descent: on a one-tier engine the answer is
/// the oracle's and the scan matcher's, the tier anchors exactly when
/// every query leaf is a text node whose label no node with children
/// carries, `limit = k` returns the first `k` matches of the unlimited
/// answer, and an engine whose documents sit in a bulk tier, a
/// compacted tier and the delta gives the same answer set.
fn prop_anchored_equals_oracle(input: &ValueInput) -> Result<(), String> {
    let (scripts, (cut, cut2), spec) = input;
    let mut collection = Collection::new();
    for (root, steps) in scripts {
        let tree = build_value_tree(*root, steps, collection.symbols_mut());
        collection.add_tree(tree);
    }
    let shape = spec.shape(&collection);
    let mut syms = collection.symbols().clone();
    let q = shape.twig(spec.element_leaf, &mut syms);
    let expected = naive_as_set(&collection, &q);
    let dummy = syms.clone().intern("\u{1}dummy");
    let scan_set = matches_as_set(&scan::scan_matches(&collection, &q, dummy));
    assert_eq!(scan_set, expected, "scan vs oracle");

    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    use prix::core::index::ExecOpts;
    let unlimited = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    assert_eq!(
        matches_as_set(&unlimited.matches),
        expected,
        "PRIX vs oracle"
    );
    let qt = q.tree();
    let parents: std::collections::HashSet<_> = collection
        .iter()
        .flat_map(|(_, t)| t.nodes().filter(|&n| !t.is_leaf(n)).map(|n| t.label(n)))
        .collect();
    let anchors = qt
        .nodes()
        .filter(|&n| qt.is_leaf(n))
        .all(|n| qt.kind(n) == NodeKind::Text && !parents.contains(&qt.label(n)));
    let s = &unlimited.stats;
    assert_eq!(s.range_queries == 0, anchors, "anchored {anchors}: {s:?}");
    for k in 0..=expected.len() + 1 {
        let out = snap.query_opts(&q, &ExecOpts::new().with_limit(k)).unwrap();
        if anchors {
            let first: Vec<_> = unlimited.matches.iter().take(k).cloned().collect();
            assert_eq!(out.matches, first, "limit {k} is not a prefix");
        }
        assert_eq!(out.truncated, k <= expected.len(), "limit {k} truncated");
    }

    // The same documents over three tiers.
    let xml: Vec<String> = collection
        .iter()
        .map(|(_, t)| prix::xml::write_document(t, collection.symbols()))
        .collect();
    let mut bulk = Collection::new();
    for doc in &xml[..*cut] {
        bulk.add_xml(doc).unwrap();
    }
    let mut tiered = PrixEngine::build(bulk, EngineConfig::default()).unwrap();
    for (part, compact) in [(&xml[*cut..*cut2], true), (&xml[*cut2..], false)] {
        let out = tiered.ingest_batch(part).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected);
        tiered.save().unwrap();
        if compact {
            tiered.compact().unwrap();
        }
    }
    let mut syms_t = tiered.symbols().clone();
    let qt = shape.twig(spec.element_leaf, &mut syms_t);
    let out = tiered.snapshot().query(&qt).unwrap();
    assert_eq!(matches_as_set(&out.matches), expected, "tiers vs one tier");
    Ok(())
}

#[test]
fn anchored_equals_oracle() {
    check(
        "anchored_equals_oracle",
        &Config {
            cases: 96,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_value_input(),
        prop_anchored_equals_oracle,
    );
}

// ---------------------------------------------------------------------
// Predicate twigs: the candidates a predicate's postings anchor.
// ---------------------------------------------------------------------

/// The values a field holds: numbers and strings that share prefixes.
const FIELD_VALUES: [&str; 7] = ["1", "2", "5", "10", "x1", "x2", "y"];

/// One node of a predicate document's script: an element `a`–`c`
/// (`label < 3`), or a field `d`/`e` holding one of [`FIELD_VALUES`]
/// (or none) as its first child. Any of them may be descended into, so
/// fields nest and hold elements too.
#[derive(Debug, Clone)]
struct FieldStep {
    label: u8,
    value: Option<u8>,
    descend: bool,
    ups: u8,
}

fn gen_field_steps(rng: &mut TestRng, max_nodes: usize) -> Vec<FieldStep> {
    let len = rng.range(1, max_nodes as u64 - 1) as usize;
    (0..len)
        .map(|_| {
            let label = if rng.chance(0.6) {
                3 + rng.below(2)
            } else {
                rng.below(3)
            } as u8;
            FieldStep {
                label,
                value: (label >= 3 && rng.chance(0.85))
                    .then(|| rng.below(FIELD_VALUES.len() as u64) as u8),
                descend: rng.chance(0.35),
                ups: rng.below(3) as u8,
            }
        })
        .collect()
}

fn build_field_tree(root: u8, steps: &[FieldStep], syms: &mut SymbolTable) -> XmlTree {
    let names = ["a", "b", "c", "d", "e"];
    let mut tree = XmlTree::with_root(syms.intern(names[root as usize % 3]), NodeKind::Element);
    let mut stack = vec![tree.root()];
    for s in steps {
        let cur = *stack.last().unwrap();
        let id = tree.add_child(
            cur,
            syms.intern(names[s.label as usize % 5]),
            NodeKind::Element,
        );
        if let Some(v) = s.value {
            let value = FIELD_VALUES[v as usize % FIELD_VALUES.len()];
            tree.add_child(id, syms.intern(value), NodeKind::Text);
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

/// A predicate twig drawn from a document: the subtree under one of its
/// elements (`node`), two element children a node at most, cut three
/// levels down, every edge `/`. Each field leaf takes `preds[i]`'s
/// predicates in turn (none, one, or two of them): `(op, literal)`, op
/// `0..7` (`=`, `<`, `<=`, `>`, `>=`, `starts-with`, `!=`) and a literal
/// index, numeric for the order operators.
#[derive(Debug, Clone)]
struct PredTwig {
    doc: u8,
    node: u8,
    preds: Vec<Vec<(u8, u8)>>,
}

impl PredTwig {
    fn value(op: u8, lit: u8) -> (PredOp, PredValue) {
        const NUMS: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 3.0];
        const STRS: [&str; 5] = ["x1", "x", "1", "y", ""];
        let num = PredValue::Num(NUMS[lit as usize % NUMS.len()]);
        let str = PredValue::Str(STRS[lit as usize % STRS.len()].to_string());
        match op % 7 {
            0 if lit % 2 == 0 => (PredOp::Eq, num),
            0 => (PredOp::Eq, str),
            1 => (PredOp::Lt, num),
            2 => (PredOp::Le, num),
            3 => (PredOp::Gt, num),
            4 => (PredOp::Ge, num),
            5 => (PredOp::StartsWith, str),
            _ => (PredOp::Ne, num),
        }
    }

    /// The twig over `collection`'s symbols, interned into `syms`.
    fn twig(&self, collection: &Collection, syms: &mut SymbolTable) -> TwigQuery {
        let src = collection.doc(u32::from(self.doc) % collection.len() as u32);
        let is_element = |n: NodeId| src.kind(n) == NodeKind::Element;
        let mut elements: Vec<NodeId> = src.nodes().filter(|&n| is_element(n)).collect();
        // Mostly a node with element children, so that most twigs branch.
        let inner: Vec<NodeId> = elements
            .iter()
            .copied()
            .filter(|&n| src.children(n).iter().any(|&c| is_element(c)))
            .collect();
        if self.node % 4 != 0 && !inner.is_empty() {
            elements = inner;
        }
        let top = elements[usize::from(self.node / 4) % elements.len()];
        let name = |n: NodeId| collection.symbols().name(src.label(n)).to_string();
        let mut tree = XmlTree::with_root(syms.intern(&name(top)), NodeKind::Element);
        let mut todo = vec![(top, tree.root(), 0)];
        let mut leaves = Vec::new();
        while let Some((from, to, depth)) = todo.pop() {
            let kids: Vec<NodeId> = src
                .children(from)
                .iter()
                .copied()
                .filter(|&c| src.kind(c) == NodeKind::Element)
                .take(if depth < 3 { 2 } else { 0 })
                .collect();
            if kids.is_empty() {
                leaves.push((to, from));
            }
            for c in kids {
                todo.push((
                    c,
                    tree.add_child(to, syms.intern(&name(c)), NodeKind::Element),
                    depth + 1,
                ));
            }
        }
        tree.seal();
        let mut preds = Vec::new();
        for (i, &(leaf, from)) in leaves.iter().enumerate() {
            let is_field = matches!(syms.name(tree.label(leaf)), "d" | "e");
            // The value the source field holds, if any.
            let held = src
                .children(from)
                .first()
                .filter(|&&c| src.kind(c) == NodeKind::Text)
                .map(|&c| collection.symbols().name(src.label(c)));
            for &(op, lit) in self.preds.get(i).into_iter().flatten().filter(|_| is_field) {
                let (op, value) = match (Self::value(op, lit), held) {
                    // Most literals are the held value, so that most
                    // twigs match somewhere.
                    ((op, PredValue::Num(_)), Some(v)) if lit % 5 != 0 => match v.parse() {
                        Ok(n) => (op, PredValue::Num(n)),
                        Err(_) => (PredOp::Eq, PredValue::Str(v.to_string())),
                    },
                    ((PredOp::StartsWith, _), Some(v)) if lit % 5 != 0 => {
                        (PredOp::StartsWith, PredValue::Str(v[..1].to_string()))
                    }
                    (drawn, _) => drawn,
                };
                preds.push(ValuePred {
                    node: leaf,
                    op,
                    value,
                });
            }
        }
        let edges = vec![EdgeKind::Child; tree.len()];
        TwigQuery::with_preds(tree, edges, false, preds)
    }
}

/// Documents split in three (bulk, ingest then compact, ingest into the
/// delta) and a predicate twig.
type PredTwigInput = (Vec<(u8, Vec<FieldStep>)>, (usize, usize), PredTwig);

fn gen_pred_twig_input() -> impl Generator<Value = PredTwigInput> {
    from_fn(|rng| {
        let docs: Vec<_> = (0..rng.range(1, 6))
            .map(|_| (rng.below(3) as u8, gen_field_steps(rng, 16)))
            .collect();
        let cut = rng.below(docs.len() as u64 + 1) as usize;
        let cut2 = cut + rng.below((docs.len() - cut) as u64 + 1) as usize;
        let twig = PredTwig {
            doc: rng.below(8) as u8,
            node: rng.below(64) as u8,
            preds: (0..6)
                .map(|_| {
                    let n = if rng.chance(0.1) {
                        0
                    } else if rng.chance(0.15) {
                        2
                    } else {
                        1
                    };
                    (0..n)
                        .map(|_| (rng.below(7) as u8, rng.below(5) as u8))
                        .collect()
                })
                .collect(),
        };
        (docs, (cut, cut2), twig)
    })
}

/// Does `emb` satisfy every predicate of `q` in `tree`? A predicate
/// holds iff its node's image has a leaf child whose label is accepted.
fn preds_hold(tree: &XmlTree, syms: &SymbolTable, q: &TwigQuery, emb: &[PostNum]) -> bool {
    q.preds().iter().all(|p| {
        let img = emb[(q.tree().postorder(p.node) - 1) as usize];
        let node = tree.nodes().find(|&n| tree.postorder(n) == img).unwrap();
        tree.children(node)
            .iter()
            .any(|&c| tree.is_leaf(c) && p.accepts(syms.name(tree.label(c))))
    })
}

/// Predicate twigs answer alike whether their candidates come from the
/// predicates' postings or the trie descent. On a one-tier engine: the
/// unlimited answer is the oracle's and, match for match and in order,
/// the trie descent's; the tier anchors (runs no range query) exactly
/// when every query leaf carries a predicate other than `!=`; an
/// anchored twig whose predicates are all its anchors' rejects nothing
/// in verification; `limit = k` returns the first `k` matches of the
/// unlimited answer; and the §5.7 arrangement loop answers the union of
/// its arrangements' filtered oracles. An engine whose documents sit in
/// a bulk tier, a compacted tier and the delta gives the same answer.
fn prop_pred_anchored_equals_oracle(input: &PredTwigInput) -> Result<(), String> {
    let (scripts, (cut, cut2), spec) = input;
    let mut collection = Collection::new();
    for (root, steps) in scripts {
        let tree = build_field_tree(*root, steps, collection.symbols_mut());
        collection.add_tree(tree);
    }
    let mut syms = collection.symbols().clone();
    let q = spec.twig(&collection, &mut syms);
    let holds = |doc: u32, emb: &[PostNum]| preds_hold(collection.doc(doc), &syms, &q, emb);
    let mut expected = naive_as_set(&collection, &q.without_preds());
    expected.retain(|(doc, emb)| holds(*doc, emb));

    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    use prix::core::index::ExecOpts;
    use prix::core::PredEval;
    let unlimited = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    assert_eq!(
        matches_as_set(&unlimited.matches),
        expected,
        "PRIX vs oracle"
    );

    // The trie descent of the same tier, which never anchors.
    let idx = engine.seg_tiers()[0].index_of(unlimited.index_used);
    let pred = PredEval::build(&q, engine.seg_tiers(), engine.symbols()).unwrap();
    let mut stream = idx.stream(&q, &ExecOpts::new(), pred.as_ref()).unwrap();
    let mut trie = Vec::new();
    while let Some(m) = stream.next_match().unwrap() {
        trie.push(m);
    }
    assert_eq!(unlimited.matches, trie, "anchored vs the trie descent");

    let qt = q.tree();
    let probeable = |n: NodeId| q.preds().iter().any(|p| p.node == n && p.op != PredOp::Ne);
    let leaves: Vec<NodeId> = qt.nodes().filter(|&n| qt.is_leaf(n)).collect();
    let anchors = leaves.iter().all(|&n| probeable(n));
    let s = &unlimited.stats;
    assert_eq!(s.range_queries == 0, anchors, "anchored {anchors}: {s:?}");
    let only_anchors = q.preds().len() == leaves.len();
    if anchors && only_anchors {
        assert_eq!(
            s.pred_rejected, 0,
            "an anchor's posting failed its own predicate: {s:?}"
        );
    }
    for k in 0..=expected.len() + 1 {
        let out = snap.query_opts(&q, &ExecOpts::new().with_limit(k)).unwrap();
        if anchors {
            let first: Vec<_> = unlimited.matches.iter().take(k).cloned().collect();
            assert_eq!(out.matches, first, "limit {k} is not a prefix");
        }
        assert_eq!(out.truncated, k <= expected.len(), "limit {k} truncated");
    }

    if let Ok(arrs) = prix::core::arrange::arrangements(&q, 24) {
        let mut union = Vec::new();
        for arr in &arrs {
            for (doc, tree) in collection.iter() {
                for emb in naive::naive_ordered(tree, &arr.query) {
                    let mut base = vec![0 as PostNum; emb.len()];
                    for (arr_q, img) in emb.iter().enumerate() {
                        base[(arr.base_of[arr_q] - 1) as usize] = *img;
                    }
                    if holds(doc, &base) {
                        union.push((doc, base));
                    }
                }
            }
        }
        union.sort();
        union.dedup();
        let out = snap.query_unordered_opts(&q, &ExecOpts::new()).unwrap();
        assert_eq!(matches_as_set(&out.matches), union, "unordered vs oracle");
    }

    // The same documents over three tiers.
    let xml: Vec<String> = collection
        .iter()
        .map(|(_, t)| prix::xml::write_document(t, collection.symbols()))
        .collect();
    let mut bulk = Collection::new();
    for doc in &xml[..*cut] {
        bulk.add_xml(doc).unwrap();
    }
    let mut tiered = PrixEngine::build(bulk, EngineConfig::default()).unwrap();
    for (part, compact) in [(&xml[*cut..*cut2], true), (&xml[*cut2..], false)] {
        let out = tiered.ingest_batch(part).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected);
        tiered.save().unwrap();
        if compact {
            tiered.compact().unwrap();
        }
    }
    let mut syms_t = tiered.symbols().clone();
    let qt = spec.twig(&collection, &mut syms_t);
    let out = tiered.snapshot().query(&qt).unwrap();
    assert_eq!(matches_as_set(&out.matches), expected, "tiers vs one tier");
    if tiered.mutable_docs() == 0 || !anchors {
        let anchored = out.stats.range_queries == 0;
        assert_eq!(
            anchored, anchors,
            "tiers anchored {anchors}: {:?}",
            out.stats
        );
    }
    Ok(())
}

#[test]
fn pred_anchored_equals_oracle() {
    check(
        "pred_anchored_equals_oracle",
        &Config {
            cases: 192,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen_pred_twig_input(),
        prop_pred_anchored_equals_oracle,
    );
}

// ---------------------------------------------------------------------
// Rarest-label pruning: rare labels planted in a haystack.
// ---------------------------------------------------------------------

/// A haystack document: `m` and `h` nodes under a root `r`, each `h`
/// holding a `k` (so no `h` is childless and a twig ending in `h` takes
/// the §4.4 plan); a planted one has `n` (`n/n` when nested) inserted
/// before step `at`, and the steps after it under that.
type Haystack = (Vec<Step>, Option<(u8, bool)>);

/// Haystack documents and one of [`RARE_TWIGS`].
type RareInput = (Vec<Haystack>, u8);

/// Twigs whose LPS holds the planted label past position 0, behind the
/// haystack's commonest one.
const RARE_TWIGS: [&str; 3] = ["//n//h", "//n/m//h", "//n//n//h"];

fn gen_rare_input() -> impl Generator<Value = RareInput> {
    from_fn(|rng| {
        let docs = (0..400)
            .map(|_| {
                let steps = gen_steps(rng, 24);
                let plant = rng
                    .chance(0.06)
                    .then(|| (rng.below(24) as u8, rng.chance(0.5)));
                (steps, plant)
            })
            .collect();
        (docs, rng.below(RARE_TWIGS.len() as u64) as u8)
    })
}

fn build_haystack((steps, plant): &Haystack, syms: &mut SymbolTable) -> XmlTree {
    let mut tree = XmlTree::with_root(syms.intern("r"), NodeKind::Element);
    let mut stack = vec![tree.root()];
    for (i, s) in steps.iter().enumerate() {
        if let Some((at, nested)) = *plant {
            if i == usize::from(at) % steps.len() {
                for _ in 0..1 + usize::from(nested) {
                    let cur = *stack.last().unwrap();
                    stack.push(tree.add_child(cur, syms.intern("n"), NodeKind::Element));
                }
            }
        }
        let cur = *stack.last().unwrap();
        let label = if s.label % 2 == 0 { "h" } else { "m" };
        let id = tree.add_child(cur, syms.intern(label), NodeKind::Element);
        if label == "h" {
            tree.add_child(id, syms.intern("k"), NodeKind::Element);
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

/// The range queries a trie descent of `lps` runs, MaxGap off, over the
/// trie of `paths` labeled as §5.2.1 labels it (`left` = first-visit
/// rank, children in symbol order, the root 0; `right` = the largest
/// `left` below): one per frame, and with `prune = Some((j, label))`
/// one more for reading `label`'s rows, and no frame for a row at a
/// position below `j` whose subtree `(left, right]` holds none of them.
fn model_range_queries(paths: &[Vec<Sym>], lps: &[Sym], prune: Option<(usize, Sym)>) -> u64 {
    #[derive(Default)]
    struct Node {
        kids: BTreeMap<Sym, Node>,
    }
    let mut root = Node::default();
    for path in paths {
        let mut at = &mut root;
        for &s in path {
            at = at.kids.entry(s).or_default();
        }
    }
    // (sym, left, right) of every node, by a preorder walk.
    fn label(node: &Node, next: &mut u64, rows: &mut Vec<(Sym, u64, u64)>) {
        for (&sym, kid) in &node.kids {
            *next += 1;
            let (left, at) = (*next, rows.len());
            rows.push((sym, left, 0));
            label(kid, next, rows);
            rows[at].2 = *next;
        }
    }
    let mut rows = Vec::new();
    label(&root, &mut 0, &mut rows);
    let of = |sym: Sym| -> Vec<(u64, u64)> {
        rows.iter()
            .filter(|r| r.0 == sym)
            .map(|r| (r.1, r.2))
            .collect()
    };
    let lefts: Vec<u64> = prune.map_or(Vec::new(), |(_, s)| of(s).iter().map(|r| r.0).collect());
    let below = prune.map_or(0, |(j, _)| j);
    let holds = |l: u64, r: u64| lefts.iter().any(|&x| l < x && x <= r);
    let mut count = u64::from(prune.is_some());
    let mut todo = vec![(0usize, 0u64, u64::MAX)];
    while let Some((depth, ql, qr)) = todo.pop() {
        count += 1;
        for (left, right) in of(lps[depth]) {
            let kept = left > ql && left <= qr && (depth >= below || holds(left, right));
            if kept && depth + 1 < lps.len() {
                todo.push((depth + 1, left, right));
            }
        }
    }
    count
}

/// Rarest-label pruning is exact and pays where the label is rare: over
/// a haystack with a label planted in a few documents, a twig whose LPS
/// holds it past position 0 answers what the oracle does, and its range
/// queries are those of a model descent that reads the planted label's
/// rows once and skips every shallower row whose subtree lacks one —
/// fewer than the model's descent without pruning.
fn prop_rare_label_pruning(input: &RareInput) -> Result<(), String> {
    let (docs, pick) = input;
    let mut collection = Collection::new();
    for doc in docs {
        let tree = build_haystack(doc, collection.symbols_mut());
        collection.add_tree(tree);
    }
    let mut syms = collection.symbols().clone();
    let xpath = RARE_TWIGS[usize::from(*pick) % RARE_TWIGS.len()];
    let q = prix::core::parse_xpath(xpath, &mut syms).unwrap();
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    use prix::core::index::ExecOpts;
    let out = engine
        .snapshot()
        .query_opts(&q, &ExecOpts::new().without_maxgap())
        .unwrap();
    assert_eq!(
        matches_as_set(&out.matches),
        naive_as_set(&collection, &q),
        "PRIX vs oracle"
    );

    // The `//` above the leaf puts the twig on the EPIndex, whose trie
    // files the extended documents' LPS; either plan's LPS is the
    // extended twig's, the RPIndex's by §4.4.
    let dummy = syms.intern("\u{1}dummy");
    let paths: Vec<Vec<Sym>> = collection
        .iter()
        .map(|(_, t)| match out.index_used {
            IndexKind::Regular => prix::prufer::PruferSeq::regular(t).lps,
            IndexKind::Extended => {
                let ext = prix::prufer::ExtendedTree::build(t, dummy);
                prix::prufer::PruferSeq::regular(&ext.tree).lps
            }
        })
        .collect();
    let lps = q.extended(dummy).seq.lps;
    let n = syms.lookup("n").unwrap();
    let j = lps.iter().rposition(|&s| s == n).unwrap();
    let pruned = model_range_queries(&paths, &lps, Some((j, n)));
    let full = model_range_queries(&paths, &lps, None);
    assert_eq!(
        out.stats.range_queries, pruned,
        "{xpath}: full descent {full}"
    );
    assert!(
        pruned < full,
        "{xpath}: pruning saved nothing ({pruned} of {full})"
    );
    Ok(())
}

#[test]
fn rare_label_pruning() {
    check(
        "rare_label_pruning",
        &Config {
            cases: 8,
            max_shrink_iters: 20,
            ..Default::default()
        },
        &gen_rare_input(),
        prop_rare_label_pruning,
    );
}

/// Unordered matching finds at least the ordered matches and agrees
/// with the arrangement-union oracle.
fn prop_unordered_is_arrangement_union(input: &EngineInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, false, &mut syms);
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();

    let Ok(arrs) = prix::core::arrange::arrangements(&q, 100) else {
        return Ok(()); // too many arrangements; skip
    };
    let mut expected: Vec<(u32, Vec<PostNum>)> = Vec::new();
    for arr in &arrs {
        for (doc, tree) in collection.iter() {
            for emb in naive::naive_ordered(tree, &arr.query) {
                // Remap to base numbering.
                let mut base = vec![0 as PostNum; emb.len()];
                for (arr_q, img) in emb.iter().enumerate() {
                    base[(arr.base_of[arr_q] - 1) as usize] = *img;
                }
                expected.push((doc, base));
            }
        }
    }
    expected.sort();
    expected.dedup();

    let out = engine
        .snapshot()
        .query_unordered_opts(&q, &prix::core::index::ExecOpts::new())
        .unwrap();
    assert_eq!(matches_as_set(&out.matches), expected);
    Ok(())
}

#[test]
fn unordered_is_arrangement_union() {
    let gen = from_fn(|rng| (gen_doc_scripts(rng, 2, 12), gen_query_spec(rng, 4)));
    check(
        "unordered_is_arrangement_union",
        &Config {
            cases: 48,
            max_shrink_iters: 200,
            ..Default::default()
        },
        &gen,
        prop_unordered_is_arrangement_union,
    );
}

// ---------------------------------------------------------------------
// Incremental insertion vs bulk build.
// ---------------------------------------------------------------------

type IncrementalInput = (
    Vec<(u8, Vec<Step>)>,
    Vec<(u8, Vec<Step>)>,
    (u8, Vec<Step>, Vec<u8>),
);

fn gen_incremental_input() -> impl Generator<Value = IncrementalInput> {
    from_fn(|rng| {
        (
            gen_doc_scripts(rng, 2, 10),
            gen_doc_scripts(rng, 2, 10),
            gen_query_spec(rng, 4),
        )
    })
}

/// Incremental insertion (dynamic labeling) is equivalent to bulk
/// building over the whole collection.
fn prop_incremental_equals_bulk(input: &IncrementalInput) -> Result<(), String> {
    let (base_scripts, added_scripts, (q_root, q_steps, q_edges)) = input;
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

    let mut incremental = PrixEngine::build(base, EngineConfig::default()).unwrap();
    for xml in &added_xml {
        match incremental.insert_document(xml) {
            Ok(_) => {}
            Err(e) => panic!("unexpected insert failure: {e}"),
        }
    }
    let bulk = PrixEngine::build(full.clone(), EngineConfig::default()).unwrap();

    // Symbol ids diverge between the two engines (the dummy label
    // interleaves differently), so build the query against each
    // engine's own table.
    let mut syms_i = incremental.symbols().clone();
    let qi = build_query(*q_root, q_steps, q_edges, false, &mut syms_i);
    let mut syms_b = bulk.symbols().clone();
    let qb = build_query(*q_root, q_steps, q_edges, false, &mut syms_b);
    let mi = matches_as_set(&incremental.snapshot().query(&qi).unwrap().matches);
    let mb = matches_as_set(&bulk.snapshot().query(&qb).unwrap().matches);
    assert_eq!(&mi, &mb);
    let oracle = naive_as_set(&full, &qb);
    assert_eq!(&mi, &oracle);
    Ok(())
}

#[test]
fn incremental_equals_bulk() {
    check(
        "incremental_equals_bulk",
        &Config::cases(24),
        &gen_incremental_input(),
        prop_incremental_equals_bulk,
    );
}

// ---------------------------------------------------------------------
// Prüfer sequence properties.
// ---------------------------------------------------------------------

type TreeInput = (u8, Vec<Step>);

fn gen_tree_input(max_nodes: usize) -> impl Generator<Value = TreeInput> {
    from_fn(move |rng| (rng.below(5) as u8, gen_steps(rng, max_nodes)))
}

/// Prüfer transformation is a bijection: sequences reconstruct the
/// tree (Lemma 1 / §3.1), and the classical numbering-agnostic
/// reconstruction agrees with the postorder shortcut.
fn prop_prufer_roundtrip(input: &TreeInput) -> Result<(), String> {
    let (root, steps) = input;
    let mut syms = SymbolTable::new();
    let tree = build_tree(*root, steps, &mut syms);
    let seq = prix::prufer::PruferSeq::regular(&tree);

    let direct = prix::prufer::reconstruct::shape_from_nps(&seq.nps).unwrap();
    let classical = prix::prufer::reconstruct::classical_parents(&seq.nps).unwrap();
    assert_eq!(&direct, &classical, "Lemma 1");

    let rebuilt =
        prix::prufer::reconstruct::tree_from_sequences(&seq.lps, &seq.nps, &tree.leaves()).unwrap();
    assert_eq!(rebuilt.len(), tree.len());
    for num in 1..=tree.len() as PostNum {
        assert_eq!(rebuilt.label_at(num), tree.label_at(num));
        assert_eq!(rebuilt.parent_post(num), tree.parent_post(num));
    }
    Ok(())
}

#[test]
fn prufer_roundtrip() {
    check(
        "prufer_roundtrip",
        &Config::cases(96),
        &gen_tree_input(30),
        prop_prufer_roundtrip,
    );
}

/// Theorem 1: a (labeled, ordered, postorder-monotone) subtree's LPS
/// is a subsequence of the host LPS — no false dismissals at the
/// filtering phase.
fn prop_subtree_lps_is_subsequence(input: &TreeInput) -> Result<(), String> {
    let (root, steps) = input;
    let mut syms = SymbolTable::new();
    let tree = build_tree(*root, steps, &mut syms);
    let seq = prix::prufer::PruferSeq::regular(&tree);
    // Take the subtree rooted at every node with >= 2 nodes.
    for node in tree.nodes() {
        if tree.is_leaf(node) {
            continue;
        }
        // Build the subtree as its own XmlTree.
        let mut sub = XmlTree::with_root(tree.label(node), NodeKind::Element);
        let mut map = HashMap::new();
        map.insert(node, sub.root());
        let mut stack = vec![node];
        let mut order = Vec::new();
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in tree.children(v).iter().rev() {
                stack.push(c);
            }
        }
        for v in order.into_iter().skip(1) {
            let p = map[&tree.parent(v).unwrap()];
            let id = sub.add_child(p, tree.label(v), tree.kind(v));
            map.insert(v, id);
        }
        sub.seal();
        let sub_seq = prix::prufer::PruferSeq::regular(&sub);
        assert!(
            prix::prufer::subseq::is_subsequence(&sub_seq.lps, &seq.lps),
            "Theorem 1 violated for subtree at node {node}"
        );
    }
    Ok(())
}

#[test]
fn subtree_lps_is_subsequence() {
    check(
        "subtree_lps_is_subsequence",
        &Config::cases(96),
        &gen_tree_input(20),
        prop_subtree_lps_is_subsequence,
    );
}

// ---------------------------------------------------------------------
// Named regression tests.
//
// The first two reconstruct the concrete shrunk counterexamples that
// the retired proptest setup had recorded in
// `tests/property_engines.proptest-regressions` (hashes 7ee6c488 and
// c02ec589, both against `incremental_equals_bulk`). The remaining six
// pin one replay seed per property, so every property in this file has
// at least one frozen, deterministic input that survives generator
// changes being debugged (a replay failure distinguishes "generator
// changed" from "engine broke").
// ---------------------------------------------------------------------

#[test]
fn regression_incremental_7ee6c488_sibling_then_descend() {
    let input: IncrementalInput = (
        vec![(0, vec![step(0, false, 0), step(0, false, 0)])],
        vec![(0, vec![step(1, true, 0), step(0, false, 0)])],
        (0, vec![step(0, false, 0)], vec![0, 0, 0, 0, 0]),
    );
    prop_incremental_equals_bulk(&input).unwrap();
}

#[test]
fn regression_incremental_c02ec589_two_added_siblings() {
    let input: IncrementalInput = (
        vec![(0, vec![step(0, false, 0)])],
        vec![(0, vec![step(3, false, 0), step(3, false, 0)])],
        (0, vec![step(3, false, 0)], vec![0, 0, 0, 0, 0]),
    );
    prop_incremental_equals_bulk(&input).unwrap();
}

#[test]
fn regression_seed_all_engines_equal_oracle() {
    replay(
        0x5EED_0001,
        &gen_engine_input(),
        prop_all_engines_equal_oracle,
    );
}

#[test]
fn regression_seed_descendant_queries() {
    replay(0x5EED_0002, &gen_engine_input(), prop_descendant_queries);
}

#[test]
fn regression_seed_maxgap_is_lossless() {
    replay(0x5EED_0003, &gen_engine_input(), prop_maxgap_is_lossless);
}

#[test]
fn regression_seed_limit_is_prefix_of_unlimited() {
    replay(
        0x5EED_0007,
        &gen_engine_input(),
        prop_limit_is_prefix_of_unlimited,
    );
}

#[test]
fn regression_seed_anchored_equals_oracle() {
    replay(0x5EED_0008, &gen_value_input(), prop_anchored_equals_oracle);
}

#[test]
fn regression_seed_pred_anchored_equals_oracle() {
    replay(
        0x5EED_0009,
        &gen_pred_twig_input(),
        prop_pred_anchored_equals_oracle,
    );
}

#[test]
fn regression_seed_rare_label_pruning() {
    replay(0x5EED_000A, &gen_rare_input(), prop_rare_label_pruning);
}

#[test]
fn regression_seed_unordered_is_arrangement_union() {
    replay(
        0x5EED_0004,
        &gen_engine_input(),
        prop_unordered_is_arrangement_union,
    );
}

#[test]
fn regression_seed_incremental_equals_bulk() {
    replay(
        0x5EED_0005,
        &gen_incremental_input(),
        prop_incremental_equals_bulk,
    );
}

#[test]
fn regression_seed_prufer_roundtrip_and_theorem1() {
    replay(0x5EED_0006, &gen_tree_input(30), prop_prufer_roundtrip);
    replay(
        0x5EED_0006,
        &gen_tree_input(20),
        prop_subtree_lps_is_subsequence,
    );
}
