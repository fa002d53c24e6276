//! Cross-engine agreement: PRIX, TwigStack, TwigStackXB, ViST
//! (verified), the scan matcher, and the naive oracle all return the
//! same twig-match counts for the paper's workload — and, through
//! [`EngineSnapshot::query_routed`], a query with no engine named runs
//! where §5.6's rule sends it (the EPIndex for a value twig, the
//! RPIndex for any other) and answers exactly what
//! [`EngineSnapshot::query_opts`] does, while every forced engine
//! returns a *bit-identical* canonical match vector. The routed half
//! runs the paper workload plus random twigs via `prix-testkit`, with
//! pinned replay seeds at the bottom of the file.

use std::collections::HashMap;
use std::sync::Arc;

use prix::core::query::TwigQuery;
use prix::core::{
    naive, prix_embedding_exact, EngineConfig, EngineId, EngineSnapshot, ExecOpts, PrixEngine,
    TwigMatch,
};
use prix::datagen::values::ShopConfig;
use prix::datagen::{generate, predicate_queries, queries::queries_for, Dataset};
use prix::server::{AltCache, SnapshotAlts};
use prix::storage::{BufferPool, Pager};
use prix::twigstack::{encode_collection, Algorithm, StreamStore, TwigJoin, XbTree};
use prix::vist::VistIndex;
use prix::xml::{Collection, NodeKind, SymbolTable, XmlTree};
use prix_testkit::{check, from_fn, replay, Config, Generator, TestRng};

fn check_counts(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();

    // TwigStack substrate.
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let raw = encode_collection(&collection);
    let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
    let mut xb = HashMap::new();
    for (&sym, elems) in &raw {
        xb.insert(sym, XbTree::build(Arc::clone(&pool), elems).unwrap());
    }

    // ViST substrate.
    let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let vist = VistIndex::build(vist_pool, &collection).unwrap();

    for pq in queries_for(ds) {
        let q = snap.parse_query(pq.xpath).unwrap();
        let expected = naive::naive_count(&collection, &q) as u64;

        let prix_n = snap.query(&q).unwrap().matches.len() as u64;
        assert_eq!(prix_n, expected, "{}: PRIX", pq.id);

        let ts = TwigJoin::new(&streams)
            .execute(&q, Algorithm::TwigStack)
            .unwrap();
        assert_eq!(ts.stats.matches, expected, "{}: TwigStack", pq.id);

        let xbj = TwigJoin::with_xbtrees(&streams, &xb)
            .execute(&q, Algorithm::TwigStackXB)
            .unwrap();
        assert_eq!(xbj.stats.matches, expected, "{}: TwigStackXB", pq.id);

        let vo = vist.execute(&q, &collection).unwrap();
        assert_eq!(vo.verified_matches, expected, "{}: ViST verified", pq.id);
        // Native ViST never loses answers (no false dismissals).
        for m in &snap.query(&q).unwrap().matches {
            assert!(
                vo.candidate_docs.contains(&m.doc),
                "{}: ViST missed doc {}",
                pq.id,
                m.doc
            );
        }
    }
}

#[test]
fn dblp_engines_agree() {
    check_counts(Dataset::Dblp);
}

#[test]
fn swissprot_engines_agree() {
    check_counts(Dataset::Swissprot);
}

#[test]
fn treebank_engines_agree() {
    check_counts(Dataset::Treebank);
}

// ---------------------------------------------------------------------
// Routed agreement: §5.6's rule picks the index, and every engine
// gives its answer.
// ---------------------------------------------------------------------

fn doc_set(matches: &[TwigMatch]) -> Vec<u32> {
    let mut d: Vec<u32> = matches.iter().map(|m| m.doc).collect();
    d.sort_unstable();
    d.dedup();
    d
}

/// The engine §5.6's rule runs `q` on: the EPIndex when the twig has
/// values, the RPIndex otherwise.
fn rule(q: &TwigQuery) -> EngineId {
    if q.needs_extended() {
        EngineId::PrixEp
    } else {
        EngineId::PrixRp
    }
}

/// The routed-agreement contract for one query:
///
/// * routing with no engine named runs §5.6's rule;
/// * every forced alternative engine returns the identical canonical
///   match vector when PRIX's embedding set is exact
///   ([`prix_embedding_exact`]), and otherwise the same document set
///   with PRIX's matches as a subset (PRIX enumerates fewer embeddings
///   for `//` at a branching node — Definition 4's
///   frequency-consistency pins the branch image);
/// * with a limit, routing runs the same rule.
fn assert_routing_agrees(engine: &EngineSnapshot, q: &TwigQuery, cache: &AltCache, tag: &str) {
    let alts = &SnapshotAlts {
        snap: engine,
        cache,
    };
    let opts = ExecOpts::new();
    let prix = engine.query_routed(q, &opts, None, alts).unwrap();
    assert_eq!(prix.outcome.engine, rule(q), "{tag}: routed off the rule");

    for id in [EngineId::Vist, EngineId::TwigStack, EngineId::TwigStackXb] {
        let forced = engine.query_routed(q, &opts, Some(id), alts).unwrap();
        assert_eq!(forced.outcome.engine, id, "{tag}: wrong engine ran");
        if prix_embedding_exact(q) {
            assert_eq!(
                forced.outcome.matches,
                prix.outcome.matches,
                "{tag}: {} vs PRIX (exact embeddings)",
                id.label()
            );
        } else {
            assert_eq!(
                doc_set(&forced.outcome.matches),
                doc_set(&prix.outcome.matches),
                "{tag}: {} document set",
                id.label()
            );
            for m in &prix.outcome.matches {
                assert!(
                    forced.outcome.matches.contains(m),
                    "{tag}: {} lost a PRIX match in doc {}",
                    id.label(),
                    m.doc
                );
            }
        }
    }

    let limited = engine
        .query_routed(q, &opts.with_limit(3), None, alts)
        .unwrap();
    assert_eq!(
        limited.outcome.engine,
        rule(q),
        "{tag}: limited query routed off the rule"
    );
}

fn check_routed(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    // One cache for the whole workload: the substrates are built once,
    // at the first forced alternative.
    let cache = AltCache::new();
    for pq in queries_for(ds) {
        let q = snap.parse_query(pq.xpath).unwrap();
        assert_routing_agrees(&snap, &q, &cache, pq.id);
    }
}

/// Every engine agrees on a skewed collection: ~1200 documents full of
/// `hay`, a `needle` ancestor in one of 40. `//needle//hay` drives
/// PRIX's subsequence filter through every `hay` trie position (the
/// common leaf is the first LPS symbol) while a twig join drills down
/// from the rare `needle` stream — the class where TwigStackXB is
/// fastest, which routing still sends to the RPIndex. The selective
/// path `/root/needle` is the class where PRIX is. Each `hay` sits in a
/// pseudo-randomly chosen wrapper so documents do not collapse onto
/// shared trie paths.
#[test]
fn rare_ancestor_and_selective_path_agree_across_engines() {
    let mut c = Collection::new();
    for i in 0..1200usize {
        let mut xml = String::from("<root>");
        if i % 40 == 0 {
            xml.push_str("<needle><hay>v</hay><hay>v</hay></needle>");
        }
        for j in 0..40usize {
            let w = (i
                .wrapping_mul(2654435761)
                .wrapping_add(j.wrapping_mul(40503))
                >> 7)
                % 29;
            xml.push_str(&format!("<w{w}><hay>v</hay></w{w}>"));
        }
        xml.push_str("</root>");
        c.add_xml(&xml).unwrap();
    }
    let engine = PrixEngine::build(c, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let cache = AltCache::new();
    for (class, xpath) in [
        ("rare_ancestor", "//needle//hay"),
        ("selective_path", "/root/needle"),
    ] {
        let q = snap.parse_query(xpath).unwrap();
        assert!(
            !snap.query(&q).unwrap().matches.is_empty(),
            "{class}: empty answer"
        );
        assert_routing_agrees(&snap, &q, &cache, class);
    }
}

/// Routing is §5.6's rule and nothing else: every Table 3 query for
/// DBLP and every predicate query over the shop scenario, run three
/// times interleaved, goes to the EPIndex exactly when it has values
/// and to the RPIndex otherwise — however many queries ran before it —
/// and answers with the matches and segment block reads of
/// [`EngineSnapshot::query_opts`] on the same snapshot.
#[test]
fn routing_is_the_section_5_6_rule_every_time() {
    let shop = prix::datagen::values::generate(&ShopConfig {
        records: 600,
        seed: 7,
    });
    let workloads = [
        (
            generate(Dataset::Dblp, 0.03, 7),
            queries_for(Dataset::Dblp)
                .iter()
                .map(|q| (q.id, q.xpath))
                .collect::<Vec<_>>(),
        ),
        (
            shop,
            predicate_queries()
                .iter()
                .map(|q| (q.id, q.xpath))
                .collect(),
        ),
    ];
    for (collection, queries) in workloads {
        let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
        let snap = engine.snapshot();
        let cache = AltCache::new();
        let alts = SnapshotAlts {
            snap: &snap,
            cache: &cache,
        };
        let opts = ExecOpts::new();
        for round in 0..3 {
            for &(id, xpath) in &queries {
                let q = snap.parse_query(xpath).unwrap();
                let routed = snap.query_routed(&q, &opts, None, &alts).unwrap().outcome;
                let direct = snap.query_opts(&q, &opts).unwrap();
                assert_eq!(routed.engine, rule(&q), "{id}, round {round}");
                assert_eq!(routed.matches, direct.matches, "{id}, round {round}");
                assert_eq!(
                    routed.io.seg_block_reads, direct.io.seg_block_reads,
                    "{id}, round {round}"
                );
            }
        }
    }
}

#[test]
fn dblp_routed_agreement() {
    check_routed(Dataset::Dblp);
}

#[test]
fn swissprot_routed_agreement() {
    check_routed(Dataset::Swissprot);
}

#[test]
fn treebank_routed_agreement() {
    check_routed(Dataset::Treebank);
}

// ---------------------------------------------------------------------
// Random twigs (prix-testkit): same generator idiom as
// tests/property_engines.rs — construction scripts over a five-name
// alphabet, plus edge picks that mix `/`, `//`, and `*{2}`.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Step {
    label: u8,
    descend: bool,
    ups: u8,
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

fn gen_doc_scripts(rng: &mut TestRng, max_docs: u64, max_nodes: usize) -> Vec<(u8, Vec<Step>)> {
    let n = rng.range(1, max_docs) as usize;
    (0..n)
        .map(|_| (rng.below(5) as u8, gen_steps(rng, max_nodes)))
        .collect()
}

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

fn build_query(
    root_label: u8,
    steps: &[Step],
    edge_picks: &[u8],
    syms: &mut SymbolTable,
) -> TwigQuery {
    use prix::prufer::EdgeKind;
    let tree = build_tree(root_label, steps, syms);
    let edges: Vec<EdgeKind> = (0..tree.len())
        .map(|i| match edge_picks[i % edge_picks.len()] % 10 {
            0..=6 => EdgeKind::Child,
            7 | 8 => EdgeKind::Descendant,
            _ => EdgeKind::Exactly(2),
        })
        .collect();
    TwigQuery::new(tree, edges, false)
}

type RoutedInput = (Vec<(u8, Vec<Step>)>, (u8, Vec<Step>, Vec<u8>));

fn gen_routed_input() -> impl Generator<Value = RoutedInput> {
    from_fn(|rng| (gen_doc_scripts(rng, 3, 14), gen_query_spec(rng, 5)))
}

/// Routing a random twig is indistinguishable (on canonical matches)
/// from forcing PRIX, and every forced alternative satisfies the
/// agreement contract of [`assert_routing_agrees`].
fn prop_routed_matches_forced_prix(input: &RoutedInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, &mut syms);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    assert_routing_agrees(&engine.snapshot(), &q, &AltCache::new(), "random twig");
    Ok(())
}

#[test]
fn routed_agreement_on_random_twigs() {
    check(
        "routed_matches_forced_prix",
        &Config::cases(48),
        &gen_routed_input(),
        prop_routed_matches_forced_prix,
    );
}

// Pinned regression seeds: replayed verbatim so a generator change or
// routing regression that breaks one of these exact inputs fails
// loudly and reproducibly.
#[test]
fn routed_agreement_replay_pinned_seeds() {
    for seed in [
        0x1CDE_2004_u64,
        0xDEAD_BEEF_0000_0001,
        0x00AB_4D5E_C0FF_EE03,
        0x7777_1234_5678_9ABC,
    ] {
        replay(seed, &gen_routed_input(), prop_routed_matches_forced_prix);
    }
}
