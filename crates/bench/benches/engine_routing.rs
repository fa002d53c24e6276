//! Cost-based engine routing pays off: on a skewed collection there is
//! a query class where the planner picks a non-PRIX engine and that
//! engine beats forced PRIX on wall clock — and a selective path class
//! where PRIX stays the right answer. Both claims are asserted in code,
//! not eyeballed; the JSON (`--json PATH`) records the medians.
//!
//! The skew: `//needle//hay` drives PRIX's subsequence filter through
//! every `hay` trie position (the common leaf is the first LPS symbol),
//! while TwigStackXB drills down from the ~rare `needle` stream and
//! skips almost the entire `hay` stream.

use prix_core::{EngineChoice, EngineConfig, ExecOpts, PrixEngine};
use prix_server::{AltCache, SnapshotAlts};
use prix_testkit::bench::{Harness, Opts, Report};
use prix_xml::Collection;

/// ~1200 documents full of `hay`, a `needle` ancestor in one of 40.
/// Each `hay` sits in a pseudo-randomly chosen wrapper so document
/// structures do not collapse onto shared trie paths — with heavy
/// prefix sharing PRIX's position scan would be artificially cheap and
/// there would be nothing to route away from.
fn skewed_collection() -> Collection {
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
    c
}

fn median_of(reports: &[Report], name: &str) -> std::time::Duration {
    reports
        .iter()
        .find(|r| r.name.ends_with(name))
        .unwrap_or_else(|| panic!("no report named {name}"))
        .median
}

fn main() {
    let engine = PrixEngine::build(skewed_collection(), EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    // The substrates are built at the first routed alternative — the
    // untimed planner check below — and shared by every sample.
    let cache = AltCache::new();
    let alts = SnapshotAlts {
        snap: &snap,
        cache: &cache,
    };
    let mut syms = engine.collection().symbols().clone();
    let opts = ExecOpts::new();

    // (class, xpath, expect_prix): the planner's chosen engine is
    // asserted per class before timing anything.
    let classes = [
        ("rare_ancestor", "//needle//hay", false),
        ("selective_path", "/root/needle", true),
    ];

    let mut h = Harness::from_args("engine_routing");
    h.set_opts(Opts {
        warmup: 2,
        samples: 15,
    });

    let mut chosen_labels = Vec::new();
    for (class, xpath, expect_prix) in classes {
        let q = prix_core::parse_xpath(xpath, &mut syms).unwrap();
        let routed = snap.query_routed(&q, &opts, None, &alts).unwrap();
        let chosen = routed.report.chosen;
        assert!(
            !routed.outcome.matches.is_empty(),
            "{class}: empty result set measures nothing"
        );
        assert_eq!(
            chosen.is_prix(),
            expect_prix,
            "{class}: planner chose {}\n{}",
            chosen.label(),
            routed.report.render()
        );
        chosen_labels.push((class, chosen.label()));

        h.bench(&format!("{class}/routed"), || {
            let r = snap.query_routed(&q, &opts, None, &alts).unwrap();
            std::hint::black_box(r.outcome.matches.len());
        });
        h.bench(&format!("{class}/forced_prix"), || {
            let r = snap
                .query_routed(&q, &opts, Some(EngineChoice::Prix), &alts)
                .unwrap();
            std::hint::black_box(r.outcome.matches.len());
        });
        h.bench(&format!("{class}/forced_{}", chosen.label()), || {
            let r = snap
                .query_routed(&q, &opts, Some(EngineChoice::Forced(chosen)), &alts)
                .unwrap();
            std::hint::black_box(r.outcome.matches.len());
        });
    }

    // Acceptance: on the rare-ancestor class the planner left PRIX for
    // a reason — the engine it chose is measurably faster.
    let alt_label = chosen_labels[0].1;
    let alt_t = median_of(h.reports(), &format!("rare_ancestor/forced_{alt_label}"));
    let prix_t = median_of(h.reports(), "rare_ancestor/forced_prix");
    println!(
        "rare_ancestor: planner chose {alt_label}: {:?} vs forced PRIX {:?} ({:.1}x)",
        alt_t,
        prix_t,
        prix_t.as_secs_f64() / alt_t.as_secs_f64().max(1e-9),
    );
    assert!(
        alt_t < prix_t,
        "planner chose {alt_label} but it did not win: {alt_t:?} vs PRIX {prix_t:?}"
    );
    h.finish();
}
