//! End-to-end reproduction of Table 3: every paper query returns its
//! published twig-match count on the generated datasets, and the PRIX
//! engine agrees with both the naive oracle and the scan matcher.

mod support;

use prix::core::{naive, EngineConfig, PrixEngine};
use prix::datagen::{generate, queries::queries_for, Dataset};
use support::scan;

fn check_dataset(ds: Dataset) {
    let collection = generate(ds, 0.05, 42);
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    for pq in queries_for(ds) {
        let q = snap.parse_query(pq.xpath).unwrap();
        let out = snap.query(&q).unwrap();
        let naive_n = naive::naive_count(&collection, &q);
        let scan_n = scan::scan_matches(&collection, &q, engine.dummy()).len();
        assert_eq!(
            out.matches.len(),
            naive_n,
            "{}: engine vs naive oracle",
            pq.id
        );
        assert_eq!(out.matches.len(), scan_n, "{}: engine vs scan", pq.id);
        assert_eq!(
            out.matches.len() as u64,
            pq.expected_matches,
            "{}: Table 3 count",
            pq.id
        );
    }
}

#[test]
fn dblp_queries_match_table3() {
    check_dataset(Dataset::Dblp);
}

#[test]
fn swissprot_queries_match_table3() {
    check_dataset(Dataset::Swissprot);
}

#[test]
fn treebank_queries_match_table3() {
    check_dataset(Dataset::Treebank);
}
