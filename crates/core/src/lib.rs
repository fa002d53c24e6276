//! The PRIX system (paper §3, §5): indexing XML document collections by
//! Prüfer sequences and answering twig queries by subsequence matching
//! plus refinement.
//!
//! The pipeline mirrors Figure 3 of the paper:
//!
//! ```text
//!  indexing                       query processing
//!  ────────                       ────────────────
//!  XML docs ──► Prüfer seqs       twig ──► Prüfer seq
//!       │             │             │
//!       ▼             ▼             ▼
//!  NPS + leaf     virtual trie    filtering by subsequence matching
//!  records        (sorted rows)   (Algorithm 1 + MaxGap pruning)
//!                                   │
//!                                   ▼
//!                                 refinement: connectedness,
//!                                 gap/frequency consistency, leaves
//!                                 (Algorithm 2)
//! ```
//!
//! Main types:
//!
//! * [`TwigQuery`] / [`parse_xpath`] — query twigs with `/`, `//`, `*`
//!   edges and equality value predicates,
//! * [`PrixIndex`] — a disk-resident index (RPIndex or EPIndex, §5.6)
//!   over one collection,
//! * [`PrixEngine`] — owns both indexes and everything that changes
//!   them: build, reopen, insert, ingest, commit, compact, verify,
//! * [`Delta`] — the tier inserts go to: each document's filed paths
//!   and record, labeled exactly when a view is taken,
//! * [`EngineSnapshot`] — a view of an engine at one epoch and the one
//!   place queries run; routes each to the right index like the paper's
//!   query optimizer (§5.6). [`PrixEngine::snapshot`] hands one out for
//!   a bare engine, [`SharedEngine`] publishes one per ingest,
//! * [`plan`] — §5.6's rule as the one routing rule (a value twig runs
//!   on the EPIndex, any other on the RPIndex), and the [`QueryEngine`]
//!   contract the paper's other engines (ViST, TwigStack, TwigStackXB)
//!   meet so the library can compare them with PRIX,
//! * [`naive`] — a direct tree-matching oracle used to validate every
//!   engine (no false alarms, no false dismissals).

pub mod arrange;
pub mod delta;
pub mod engine;
pub mod exec;
pub mod index;
pub mod naive;
pub mod plan;
pub mod query;
pub mod segbuild;
pub mod snapshot;
pub mod valix;
pub mod xpath;

pub use delta::Delta;
pub use engine::{EngineConfig, IngestOutcome, LabelingMode, PrixEngine, SegTier, TierCheck};
pub use exec::MatchStream;
pub use index::{ExecOpts, IndexKind, PrixIndex, QueryStats, TwigMatch};
pub use plan::{prix_embedding_exact, AltProvider, EngineId, NoAlts, QueryEngine, Routed};
pub use prix_storage::{
    ManifestSegment, SegmentCheck, ValueRunReader, VxCheck, CHECKPOINT_LOG_BYTES, SEG_KIND_EP,
    SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX, SEG_VERSION, SYM_VERSION, VX_VERSION,
};
pub use query::{PredOp, PredValue, TwigBuilder, TwigQuery, ValuePred};
pub use segbuild::{BulkBuilder, DEFAULT_RUN_MEM_BYTES};
pub use snapshot::{EngineSnapshot, IngestReport, QueryOutcome, SharedEngine};
pub use valix::{PredEval, ProbeStats};
pub use xpath::{parse_xpath, XPathError};

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use prix_prufer::MaxGapTable;
    use prix_testkit::TestRng;
    use prix_xml::{Collection, Sym, SymbolTable};

    use crate::engine::{decode_symbols, encode_symbols};
    use crate::index::{
        decode_doc_record, decode_seg_index_meta, doc_view, encode_doc_record,
        encode_seg_index_meta, BuildStats, Depth, DocData, IndexKind,
    };
    use crate::valix::PredEval;
    use crate::xpath::parse_xpath;

    /// The never-panic table of core's decoders. Each reads bytes a file
    /// held — a document record, and the extended view an EPIndex
    /// derives from it, a segment's meta blob, a symbol run's name
    /// list — and must
    /// answer every prefix of a valid blob, and 2 000 seeded mutations
    /// of it, with a value or a refusal, never a panic. So must
    /// predicate verification of a record whose leaves name symbols
    /// past the table it resolves them in: the verdict is "no match".
    #[test]
    fn core_decoders_never_panic_on_hostile_bytes() {
        let mut c = Collection::new();
        c.add_xml(r#"<a x="1"><b><c>v</c></b><d>é — ü</d><b/></a>"#)
            .unwrap();
        let dummy = c.intern("\u{1}d");
        let data = DocData::regular(c.doc(0));
        let (path, gaps) = data.filed_path(IndexKind::Extended, dummy).unwrap();
        let mut maxgap = MaxGapTable::new();
        maxgap.add_seq(&path, &gaps);
        let childless: HashSet<Sym> = data.leaves.iter().map(|&(s, _)| s).collect();
        let stats = BuildStats {
            trie_nodes: 9,
            trie_paths: 1,
            sequences: 1,
            max_path_sharing: 1,
            total_seq_len: 9,
        };
        type Decodes = fn(&[u8]) -> bool;
        let table: [(&str, Vec<u8>, Decodes); 5] = [
            ("document record", encode_doc_record(&data), |b| {
                decode_doc_record(b, Depth::Leaves).is_some()
            }),
            ("extended view", encode_doc_record(&data), |b| {
                let view = |depth| doc_view(b, IndexKind::Extended, Sym(0), depth).is_ok();
                view(Depth::Nps) & view(Depth::Leaves)
            }),
            (
                "segment meta blob",
                encode_seg_index_meta(IndexKind::Extended, dummy, &maxgap, &childless, &stats),
                |b| decode_seg_index_meta(b).is_some(),
            ),
            (
                "name list",
                encode_symbols(c.symbols().names_from(0)),
                |b| decode_symbols(b, 0, &mut SymbolTable::new()).is_some(),
            ),
            ("predicate verification", encode_doc_record(&data), |b| {
                // The query's two labels are the whole table, so every
                // leaf label the record names is past its end.
                let mut syms = SymbolTable::new();
                let q = parse_xpath(r#"//b[c = "v"]"#, &mut syms).unwrap();
                let eval = PredEval::build(&q, &[], &syms)
                    .unwrap()
                    .expect("one predicate");
                [IndexKind::Regular, IndexKind::Extended]
                    .into_iter()
                    .all(|kind| {
                        doc_view(b, kind, Sym(0), Depth::Leaves).is_ok_and(|d| {
                            (0..=d.nps.len() as u32 + 1).all(|img| !eval.matches(&d, &[img, img]))
                        })
                    })
            }),
        ];
        let mut rng = TestRng::from_seed(0x5eed_0027);
        for (what, good, decodes) in table {
            let run = |bytes: &[u8]| {
                std::panic::catch_unwind(|| decodes(bytes))
                    .unwrap_or_else(|_| panic!("{what} panicked on {bytes:?}"))
            };
            assert!(run(&good), "{what}: the valid blob is refused");
            for end in 0..good.len() {
                run(&good[..end]);
            }
            for _ in 0..2000 {
                let mut bytes = good.clone();
                for _ in 0..=rng.below(3) {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = match rng.below(3) {
                        0 => bytes[at] ^ 1 << rng.below(8),
                        1 => rng.below(256) as u8,
                        // A varint that does not end where it should.
                        _ => 0xff,
                    };
                }
                run(&bytes);
            }
        }
    }
}
