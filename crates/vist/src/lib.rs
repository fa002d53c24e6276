//! ViST baseline (Wang et al., SIGMOD 2003), as described in §2 and
//! §6 of the PRIX paper.
//!
//! ViST transforms XML trees and twig queries into *structure-encoded
//! sequences*: the preorder sequence of `(symbol, prefix)` pairs, where
//! the prefix is the root-to-node path. Query processing is subsequence
//! matching over those two-dimensional sequences, backed by
//!
//! * the **D-Ancestorship index** — a B⁺-tree over `(symbol, prefix)`
//!   keys (every distinct pair is a key; for a unary tree of `n` nodes
//!   the key material is `O(n²)`, the weakness §2 highlights),
//! * **S-Ancestorship** via the same virtual-trie `(Left, Right)`
//!   ranges PRIX uses,
//! * a Docid index from trie positions to documents.
//!
//! Differences from PRIX that this implementation reproduces
//! faithfully:
//!
//! * **top-down transformation** — the first query element is the twig
//!   root, typically the *most* frequent tag, so the first round of
//!   range queries fans out widely (§6.4.1),
//! * **values embedded in prefixes** reduce root-to-leaf path sharing
//!   in the trie,
//! * **wildcard explosion** — a `//` prefix matches every D-Ancestorship
//!   key with that symbol (the paper's Q7 matched 515 unique keys, Q8
//!   46 355),
//! * **false alarms** — subsequence matching without PRIX's refinement
//!   accepts documents that do not contain the twig (Figure 1(b));
//!   [`VistIndex::execute`] reports both the native candidate set and
//!   the verified matches so benchmarks can measure the former while
//!   tests assert on the latter.
//!
//! The crate is split by lifecycle stage: [`seq`](self) holds the
//! structure encoding, `index` the B⁺-tree construction, `query` the
//! subsequence matching, and `engine` the
//! [`prix_core::plan::QueryEngine`] adapter.

use prix_storage::StorageError;

mod engine;
mod index;
mod query;
mod seq;

/// Result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

pub use engine::VistEngine;
pub use index::{VistBuildStats, VistIndex};
pub use query::{VistOutcome, VistStats};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use prix_core::xpath::parse_xpath;
    use prix_storage::{BufferPool, Pager};
    use prix_xml::{Collection, Sym, SymbolTable};

    use crate::seq::{prefix_matches, PatStep};
    use crate::VistIndex;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Pager::in_memory(), 256))
    }

    #[test]
    fn finds_true_matches() {
        let mut c = Collection::new();
        c.add_xml("<P><Q><x/></Q><R><y/></R></P>").unwrap();
        c.add_xml("<P><Z/><R><y/></R></P>").unwrap();
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let idx = VistIndex::build(pool(), &c).unwrap();
        let out = idx.execute(&q, &c).unwrap();
        assert_eq!(out.verified_docs, vec![0]);
        assert_eq!(out.verified_matches, 1);
    }

    #[test]
    fn figure1b_false_alarm_is_reproduced() {
        let mut c = Collection::new();
        // Doc0: the twig P(Q, R) occurs.
        c.add_xml("<root><P><Q><x/></Q><R><y/></R></P></root>")
            .unwrap();
        // Doc1: Q and R live under *different* P instances with
        // identical (symbol, prefix) encodings — the encoded query is a
        // subsequence of Doc1's sequence even though the twig does not
        // occur, ViST's Figure 1(b) false alarm.
        c.add_xml("<root><P><Q><x/></Q></P><P><R><y/></R></P></root>")
            .unwrap();
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let idx = VistIndex::build(pool(), &c).unwrap();
        let out = idx.execute(&q, &c).unwrap();
        assert!(out.candidate_docs.contains(&0));
        assert!(
            out.candidate_docs.contains(&1),
            "native ViST reports the false alarm (Figure 1(b)): {:?}",
            out.candidate_docs
        );
        assert_eq!(out.verified_docs, vec![0], "verification removes it");
        assert!(out.stats.false_alarms >= 1);
    }

    #[test]
    fn unary_tree_key_material_is_quadratic() {
        // §2: "consider a unary tree with n nodes ... the total size of
        // the structure-encoded sequence is O(n^2)".
        let build = |n: usize| {
            let mut c = Collection::new();
            let mut s = String::new();
            for _ in 0..n {
                s.push_str("<u>");
            }
            for _ in 0..n {
                s.push_str("</u>");
            }
            c.add_xml(&s).unwrap();
            let idx = VistIndex::build(pool(), &c).unwrap();
            idx.build_stats().key_bytes
        };
        let k50 = build(50);
        let k100 = build(100);
        assert!(k100 > 3 * k50, "expected ~4x growth, got {k50} -> {k100}");
    }

    #[test]
    fn wildcard_queries_touch_many_keys() {
        let mut c = Collection::new();
        // NP at many different levels -> many (NP, prefix) keys.
        c.add_xml("<S><NP><NP><NP><PP><x/></PP></NP></NP></NP></S>")
            .unwrap();
        c.add_xml("<S><VP><NP><PP><x/></PP></NP></VP></S>").unwrap();
        let mut syms: SymbolTable = c.symbols().clone();
        let q_wild = parse_xpath("//NP//PP", &mut syms).unwrap();
        let idx = VistIndex::build(pool(), &c).unwrap();
        let out = idx.execute(&q_wild, &c).unwrap();
        assert!(
            out.stats.keys_matched >= 4,
            "NP occurs at 4 distinct prefixes (got {})",
            out.stats.keys_matched
        );
        assert_eq!(out.verified_docs.len(), 2);
    }

    #[test]
    fn values_reduce_prefix_sharing() {
        // Two structurally identical docs with different values share
        // fewer trie nodes than two identical docs.
        let mut c1 = Collection::new();
        c1.add_xml("<a><b>same</b></a>").unwrap();
        c1.add_xml("<a><b>same</b></a>").unwrap();
        let i1 = VistIndex::build(pool(), &c1).unwrap();
        let mut c2 = Collection::new();
        c2.add_xml("<a><b>one</b></a>").unwrap();
        c2.add_xml("<a><b>two</b></a>").unwrap();
        let i2 = VistIndex::build(pool(), &c2).unwrap();
        assert!(i2.build_stats().trie_nodes > i1.build_stats().trie_nodes);
    }

    #[test]
    fn prefix_pattern_matching() {
        let a = Sym(1);
        let b = Sym(2);
        let c = Sym(3);
        use PatStep::*;
        assert!(prefix_matches(&[AnyDeep], &[]));
        assert!(prefix_matches(&[AnyDeep], &[a, b]));
        assert!(prefix_matches(&[AnyDeep, Exact(a)], &[a]));
        assert!(prefix_matches(&[AnyDeep, Exact(a)], &[b, a]));
        assert!(!prefix_matches(&[AnyDeep, Exact(a)], &[a, b]));
        assert!(prefix_matches(&[Exact(a), AnyDeep, Exact(c)], &[a, c]));
        assert!(prefix_matches(
            &[Exact(a), AnyDeep, Exact(c)],
            &[a, b, b, c]
        ));
        assert!(!prefix_matches(&[Exact(a), AnyDeep, Exact(c)], &[b, c]));
        assert!(!prefix_matches(&[], &[a]));
        assert!(prefix_matches(&[], &[]));
    }

    #[test]
    fn absolute_queries_anchor_the_root() {
        let mut c = Collection::new();
        c.add_xml("<a><b><x/></b></a>").unwrap();
        c.add_xml("<r><a><b><x/></b></a></r>").unwrap();
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("/a/b", &mut syms).unwrap();
        let idx = VistIndex::build(pool(), &c).unwrap();
        let out = idx.execute(&q, &c).unwrap();
        assert_eq!(out.verified_docs, vec![0]);
        // Native candidates also exclude doc 1: (a, []) only matches
        // the root pair.
        assert_eq!(out.candidate_docs, vec![0]);
    }
}
