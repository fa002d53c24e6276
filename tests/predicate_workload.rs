//! End-to-end check of the predicate workload (QP1–QP8): on the
//! generated shop scenario, every predicate query returns its planted
//! match count through the full engine (value-index probe, pre-filter,
//! positional verification), and the filtered answer is contained in
//! the structural answer of the same twig without predicates.

use prix::core::{EngineConfig, PrixEngine};
use prix::datagen::predicate_queries;
use prix::datagen::values::{generate, ShopConfig};

#[test]
fn predicate_workload_matches_planted_counts() {
    let collection = generate(&ShopConfig {
        records: 900,
        seed: 42,
    });
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    for pq in predicate_queries() {
        let q = snap.parse_query(pq.xpath).unwrap();
        let out = snap.query(&q).unwrap();
        assert_eq!(
            out.matches.len() as u64,
            pq.expected_matches,
            "{}: planted count ({})",
            pq.id,
            pq.xpath
        );
        assert!(
            out.stats.valix_probes >= 1,
            "{}: every QP predicate is probe-eligible",
            pq.id
        );

        // Predicates only ever narrow: the filtered matches are a subset
        // of the structural matches of the predicate-free twig.
        let bare = q.without_preds();
        let unfiltered = snap.query(&bare).unwrap();
        assert!(out.matches.len() <= unfiltered.matches.len(), "{}", pq.id);
        for m in &out.matches {
            assert!(
                unfiltered.matches.contains(m),
                "{}: filtered match missing from unfiltered answer",
                pq.id
            );
        }
    }
}

#[test]
fn predicate_workload_counts_survive_scale_and_seed() {
    for (records, seed) in [(400usize, 7u64), (1600, 1234)] {
        let collection = generate(&ShopConfig { records, seed });
        let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
        let snap = engine.snapshot();
        for pq in predicate_queries() {
            let q = snap.parse_query(pq.xpath).unwrap();
            let out = snap.query(&q).unwrap();
            assert_eq!(
                out.matches.len() as u64,
                pq.expected_matches,
                "{} at {records} records, seed {seed}",
                pq.id
            );
        }
    }
}
