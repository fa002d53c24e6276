//! Wildcard (`//`, `*`) semantics across all engines, on crafted
//! scenarios exercising §4.5's connectedness relaxation.

use std::sync::Arc;

use prix::core::{naive, EngineConfig, PrixEngine};
use prix::storage::{BufferPool, Pager};
use prix::twigstack::{encode_collection, Algorithm, StreamStore, TwigJoin};
use prix::vist::VistIndex;
use prix::xml::Collection;

fn collection() -> Collection {
    let mut c = Collection::new();
    // Chains of different lengths between a and b.
    c.add_xml("<a><b><t>v</t></b></a>").unwrap(); // a/b
    c.add_xml("<a><m><b><t>v</t></b></m></a>").unwrap(); // a/*/b
    c.add_xml("<a><m><n><b><t>v</t></b></n></m></a>").unwrap(); // a/*/*/b
                                                                // b not under a at all.
    c.add_xml("<r><b><t>v</t></b><a><t>w</t></a></r>").unwrap();
    // Recursive a's.
    c.add_xml("<a><a><b><t>v</t></b></a></a>").unwrap();
    c
}

fn run_all(c: &Collection, xpath: &str) -> (usize, usize, usize, usize) {
    let engine = PrixEngine::build(c.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query(xpath).unwrap();
    let expected = naive::naive_count(c, &q);
    let prix = snap.query(&q).unwrap().matches.len();

    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 256));
    let raw = encode_collection(c);
    let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
    let ts = TwigJoin::new(&streams)
        .execute(&q, Algorithm::TwigStack)
        .unwrap()
        .stats
        .matches as usize;

    let vp = Arc::new(BufferPool::new(Pager::in_memory(), 256));
    let vist = VistIndex::build(vp, c).unwrap();
    let vist_n = vist.execute(&q, c).unwrap().verified_matches as usize;
    (expected, prix, ts, vist_n)
}

#[test]
fn descendant_axis_counts() {
    let c = collection();
    let (expected, prix, ts, vist) = run_all(&c, "//a//b");
    // doc0: 1, doc1: 1, doc2: 1, doc3: 0, doc4: 2 (two a ancestors).
    assert_eq!(expected, 5);
    assert_eq!(prix, 5);
    assert_eq!(ts, 5);
    assert_eq!(vist, 5);
}

#[test]
fn star_distance_counts() {
    let c = collection();
    for (xpath, want) in [
        ("//a/b", 1 + 1),   // doc0 and doc4 (inner a / b)
        ("//a/*/b", 1 + 1), // doc1, and doc4 (outer a / inner a / b)
        ("//a/*/*/b", 1),   // doc2
    ] {
        let (expected, prix, ts, vist) = run_all(&c, xpath);
        assert_eq!(expected, want, "{xpath} oracle");
        assert_eq!(prix, want, "{xpath} PRIX");
        assert_eq!(ts, want, "{xpath} TwigStack");
        assert_eq!(vist, want, "{xpath} ViST");
    }
}

#[test]
fn wildcard_above_leaf_routes_to_epindex() {
    let c = collection();
    let engine = PrixEngine::build(c.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query("//a//t").unwrap();
    assert!(q.needs_extended());
    let out = snap.query(&q).unwrap();
    assert_eq!(out.index_used, prix::core::IndexKind::Extended);
    // doc0: t under b under a (1); doc1: 1; doc2: 1; doc3: a(t) child ->
    // t is a descendant (1); doc4: t under both a's (2).
    assert_eq!(out.matches.len(), 6);
    assert_eq!(naive::naive_count(&c, &q), 6);
}

#[test]
fn mixed_axes_in_one_twig() {
    let mut c = Collection::new();
    c.add_xml("<S><X><NP><Z><PP><t>v</t></PP></Z></NP></X><VP><SYM><t>w</t></SYM></VP></S>")
        .unwrap();
    c.add_xml("<S><NP><PP><t>v</t></PP></NP><SYM><t>w</t></SYM></S>")
        .unwrap();
    let (expected, prix, ts, vist) = run_all(&c, "//S[.//NP//PP]//SYM");
    assert_eq!(expected, 2);
    assert_eq!((prix, ts, vist), (2, 2, 2));
}
