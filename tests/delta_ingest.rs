//! The delta takes every document: each generated dataset, ingested into
//! an empty engine, is accepted whole, and Table 3's queries answer over
//! it exactly as over a bulk build of the same documents.

use prix::core::{EngineConfig, EngineSnapshot, PrixEngine};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::xml::{write_document, Collection};

fn ingest_answers_like_a_bulk_build(ds: Dataset, records: usize) {
    let collection = generate(ds, 0.05, 3);
    assert_eq!(collection.len(), records);
    let xml: Vec<String> = collection
        .iter()
        .map(|(_, t)| write_document(t, collection.symbols()))
        .collect();
    let mut delta = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
    let out = delta.ingest_batch(&xml).unwrap();
    assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
    assert_eq!(out.accepted, (0..records as u32).collect::<Vec<_>>());
    assert_eq!(delta.mutable_docs(), records);
    let bulk = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let answers = |view: &EngineSnapshot, xpath: &str| {
        let q = view.parse_query(xpath).unwrap();
        view.query(&q).unwrap().matches
    };
    let (from_delta, from_bulk) = (delta.snapshot(), bulk.snapshot());
    for pq in queries_for(ds) {
        let got = answers(&from_delta, pq.xpath);
        assert_eq!(got, answers(&from_bulk, pq.xpath), "{}", pq.id);
        assert_eq!(got.len() as u64, pq.expected_matches, "{}", pq.id);
    }
}

#[test]
fn a_dblp_ingest_is_accepted_whole() {
    ingest_answers_like_a_bulk_build(Dataset::Dblp, 1000);
}

#[test]
fn a_swissprot_ingest_is_accepted_whole() {
    ingest_answers_like_a_bulk_build(Dataset::Swissprot, 300);
}

#[test]
fn a_treebank_ingest_is_accepted_whole() {
    ingest_answers_like_a_bulk_build(Dataset::Treebank, 300);
}
