//! Subsequence-matching phase ablations (paper §5.3–§5.4):
//! MaxGap pruning on vs off (Theorem 4), and exact vs dynamic virtual
//! trie labeling (§5.2.1).

use prix_core::index::ExecOpts;
use prix_core::{EngineConfig, LabelingMode, PrixEngine};
use prix_datagen::{generate, Dataset};
use prix_testkit::bench::{Harness, Opts};

fn bench_maxgap_ablation(h: &mut Harness) {
    let collection = generate(Dataset::Treebank, 0.1, 5);
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    // Q8: the query the paper uses to showcase MaxGap (§6.4.2).
    let q8 = snap.parse_query("//NP[./RBR_OR_JJR]/PP").unwrap();
    let q9 = snap.parse_query("//NP/PP/NP[./NNS_OR_NN][./NN]").unwrap();
    h.set_opts(Opts::samples(20));
    for (name, q) in [("q8", &q8), ("q9", &q9)] {
        h.bench(&format!("maxgap/{name}_with_maxgap"), || {
            std::hint::black_box(snap.query_opts(q, &ExecOpts::new()).unwrap().matches.len());
        });
        h.bench(&format!("maxgap/{name}_coarse_maxgap"), || {
            std::hint::black_box(
                snap.query_opts(q, &ExecOpts::new().without_fine_maxgap())
                    .unwrap()
                    .matches
                    .len(),
            );
        });
        h.bench(&format!("maxgap/{name}_without_maxgap"), || {
            std::hint::black_box(
                snap.query_opts(q, &ExecOpts::new().without_maxgap())
                    .unwrap()
                    .matches
                    .len(),
            );
        });
    }
}

fn bench_labeling_modes(h: &mut Harness) {
    let collection = generate(Dataset::Dblp, 0.05, 6);
    h.set_opts(Opts {
        warmup: 1,
        samples: 10,
    });
    h.bench("labeling/build_exact", || {
        let e = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
        std::hint::black_box(e.rp_index().build_stats().trie_nodes);
    });
    h.bench("labeling/build_dynamic_alpha3", || {
        let cfg = EngineConfig {
            labeling: LabelingMode::Dynamic { alpha: 3 },
            ..Default::default()
        };
        let e = PrixEngine::build(collection.clone(), cfg).unwrap();
        std::hint::black_box(e.rp_index().build_stats().underflows);
    });
}

fn main() {
    let mut h = Harness::from_args("filtering");
    bench_maxgap_ablation(&mut h);
    bench_labeling_modes(&mut h);
    h.finish();
}
