//! Index-free reference matcher.
//!
//! Runs the same two phases as the disk index — subsequence matching
//! (here: in-memory enumeration over each document's LPS) followed by
//! the Algorithm 2 refinements — without any storage. Useful for small
//! collections, and as a mid-point oracle: `scan == index` validates the
//! virtual-trie filtering, `scan == naive` validates the Prüfer theory.

use std::collections::HashSet;

use prix::core::{TwigMatch, TwigQuery};
use prix::prufer::{
    embedding, refine_match, subseq::for_each_subsequence, ExtendedTree, PruferSeq, RefineCtx,
};
use prix::xml::{Collection, PostNum, Sym};

/// Matches `q` against every document of `collection` by in-memory
/// filtering + refinement. Extended sequences are used automatically
/// when the query requires them (`q.needs_extended()`), mirroring the
/// §5.6 optimizer.
pub fn scan_matches(collection: &Collection, q: &TwigQuery, dummy: Sym) -> Vec<TwigMatch> {
    let extended = q.needs_extended();
    let (seq, edges, leaves, ext_of_orig) = if extended {
        let eq = q.extended(dummy);
        let mut ext_of_orig = vec![0 as PostNum; q.tree().len()];
        for (i, &orig) in eq.ext.orig_post.iter().enumerate() {
            if orig != 0 {
                ext_of_orig[(orig - 1) as usize] = (i + 1) as PostNum;
            }
        }
        (eq.seq, eq.edges, Vec::new(), Some(ext_of_orig))
    } else {
        (q.prufer(), q.edges_by_post(), q.leaves(), None)
    };
    if seq.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    let mut seen: HashSet<(u32, Vec<PostNum>)> = HashSet::new();
    for (doc_id, tree) in collection.iter() {
        let (doc_seq, doc_leaves, orig_map) = if extended {
            let ext = ExtendedTree::build(tree, dummy);
            let s = PruferSeq::regular(&ext.tree);
            let leaves = ext.tree.leaves();
            (s, leaves, Some(ext.orig_post))
        } else {
            (PruferSeq::regular(tree), tree.leaves(), None)
        };
        for_each_subsequence(&seq.lps, &doc_seq.lps, &mut |positions| {
            let ctx = RefineCtx {
                doc_nps: &doc_seq.nps,
                query_nps: &seq.nps,
                positions,
                edges: &edges,
                query_leaves: &leaves,
                doc_leaves: &doc_leaves,
                doc_lps: &doc_seq.lps,
                skip_leaf_check: extended,
            };
            if refine_match(&ctx) {
                let img = embedding(&seq.nps, positions, &doc_seq.nps);
                let base: Option<Vec<PostNum>> = match (&ext_of_orig, &orig_map) {
                    (None, None) => Some(img.clone()),
                    (Some(qmap), Some(dmap)) => {
                        let mut v = Vec::with_capacity(q.tree().len());
                        let mut ok = true;
                        for orig_q in 1..=q.tree().len() {
                            let e = qmap[orig_q - 1];
                            let oi = dmap[(img[(e - 1) as usize] - 1) as usize];
                            if oi == 0 {
                                ok = false;
                                break;
                            }
                            v.push(oi);
                        }
                        ok.then_some(v)
                    }
                    _ => unreachable!("query and doc extension always agree"),
                };
                if let Some(base) = base {
                    let root_ok = !q.is_absolute() || base[base.len() - 1] == tree.len() as PostNum;
                    if root_ok && seen.insert((doc_id, base.clone())) {
                        out.push(TwigMatch {
                            doc: doc_id,
                            embedding: base,
                        });
                    }
                }
            }
            true
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix::core::parse_xpath;
    use prix::xml::SymbolTable;

    fn collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<P><Q><x/></Q><R><y/></R></P>").unwrap();
        c.add_xml("<root><P><Q><x/></Q></P><P><R><y/></R></P></root>")
            .unwrap();
        c.add_xml("<P><Z/><Q><x/></Q><W/><R><y/></R></P>").unwrap();
        c
    }

    fn dummy(c: &mut Collection) -> Sym {
        c.intern("\u{1}dummy")
    }

    #[test]
    fn scan_finds_twigs_without_false_alarms() {
        let mut c = collection();
        let d = dummy(&mut c);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let m = scan_matches(&c, &q, d);
        let docs: Vec<u32> = m.iter().map(|x| x.doc).collect();
        assert_eq!(docs, vec![0, 2]);
    }

    #[test]
    fn scan_handles_values() {
        let mut c = Collection::new();
        c.add_xml("<book><title>Gone</title></book>").unwrap();
        c.add_xml("<book><title>Other</title></book>").unwrap();
        let d = dummy(&mut c);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath(r#"//book[./title="Gone"]"#, &mut syms).unwrap();
        let m = scan_matches(&c, &q, d);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].doc, 0);
    }

    #[test]
    fn multiple_embeddings_in_one_document() {
        let mut c = Collection::new();
        c.add_xml("<a><b><c/></b><b><c/></b></a>").unwrap();
        let d = dummy(&mut c);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//a/b/c", &mut syms).unwrap();
        let m = scan_matches(&c, &q, d);
        assert_eq!(m.len(), 2, "both b/c branches are matches");
        assert_ne!(m[0].embedding, m[1].embedding);
    }

    #[test]
    fn embeddings_are_deduplicated() {
        // With extended sequences, a leaf's dummy can match several
        // child positions of the same data node; the projected embedding
        // must appear once.
        let mut c = Collection::new();
        c.add_xml("<a><b><u/><v/><w/></b></a>").unwrap();
        let d = dummy(&mut c);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//b", &mut syms).unwrap();
        let m = scan_matches(&c, &q, d);
        assert_eq!(m.len(), 1);
    }
}
