//! Refinement predicates (paper §4.2–§4.5, Algorithm 2).
//!
//! After the filtering phase produces a candidate subsequence match `S`
//! (positions into a document's LPS), the match survives only if it
//! passes, in order:
//!
//! 1. **Connectedness** (Theorem 2): the data nodes behind the matched
//!    positions form a tree. At every position `i` holding the *last*
//!    occurrence of a postorder value `Nᵢ`, the next value `Nᵢ₊₁` must be
//!    the parent of node `Nᵢ` in the document — or, for wildcard query
//!    edges (§4.5), reachable from it by climbing the parent chain.
//! 2. **Gap consistency** (Definition 3): adjacent postorder gaps have
//!    equal signs and the query gap never exceeds the data gap.
//! 3. **Frequency consistency** (Definition 4): equal values occur at
//!    identical position sets in the query NPS and the matched data
//!    values. Both sequences split the indices `0..|S|` into classes of
//!    equal values, and the condition is that the two partitions are the
//!    same. The check compares, at every index, the index where the same
//!    value last occurred before it (or none) in each sequence. That is
//!    equivalent to comparing first-occurrence fingerprints: each class
//!    is the chain its previous-occurrence links form, so equal links
//!    give equal partitions, and equal partitions give equal links.
//! 4. **Leaf matching** (§4.4): query leaf labels are verified against
//!    the document's leaf list (or its LPS/NPS for internal matches).
//!    Skipped for Extended-Prüfer matches (§5.6), where every label
//!    already participates in filtering.
//!
//! Positions are 1-based throughout, matching the paper: position `p`
//! in an LPS corresponds to the deletion of the data node with postorder
//! number `p` (Lemma 1).
//!
//! Every check reads the matched values `N[i] = doc_nps[S[i] - 1]` in
//! place and allocates nothing, and [`embedding_into`] writes into the
//! caller's buffer: refinement runs once per candidate, so its cost is
//! per-candidate cost. Connectedness and frequency consistency are
//! quadratic in the match's length, which is the query's sequence
//! length, not the document's.

use prix_xml::{PostNum, Sym};

/// Structural constraint on a query node's edge to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `/` — the node's parent in the data is the image of the query
    /// parent (one edge).
    Child,
    /// `//` — the image of the query parent is reachable by one or more
    /// edges.
    Descendant,
    /// `*` chains — exactly `k` edges (`A/*/B` gives `Exactly(2)` on B,
    /// per the paper's "we simply test whether the match is found at
    /// i = 2", §4.5).
    Exactly(u32),
}

/// Everything the refinement phases need to judge one candidate match.
#[derive(Debug, Clone, Copy)]
pub struct RefineCtx<'a> {
    /// NPS of the document: `doc_nps[k - 1]` = parent of data node `k`.
    pub doc_nps: &'a [PostNum],
    /// NPS of the query twig.
    pub query_nps: &'a [PostNum],
    /// Match positions `S` (1-based into the document LPS), one per
    /// query LPS element.
    pub positions: &'a [PostNum],
    /// `edges[q - 1]` = edge kind of query node `q` toward its parent.
    pub edges: &'a [EdgeKind],
    /// Query leaf list `(label, postorder)`.
    pub query_leaves: &'a [(Sym, PostNum)],
    /// Document leaf list, sorted by postorder.
    pub doc_leaves: &'a [(Sym, PostNum)],
    /// Document LPS (for verifying labels of internal data nodes during
    /// leaf matching).
    pub doc_lps: &'a [Sym],
    /// `true` for Extended-Prüfer matches: leaf matching is unnecessary
    /// because every label already took part in subsequence matching.
    pub skip_leaf_check: bool,
}

/// Parent of data node `k` (`None` for the root).
#[inline]
fn parent_of(doc_nps: &[PostNum], k: PostNum) -> Option<PostNum> {
    doc_nps.get((k - 1) as usize).copied()
}

/// Refinement by connectedness (Theorem 2), with the wildcard
/// relaxations of §4.5.
///
/// At a last-occurrence position `i` (1-based), the verified edge is the
/// one from query node `i + 1` to its parent (by Lemma 1 applied to the
/// query, the node deleted next is the parent whose occurrences just
/// ended).
pub fn check_connectedness(ctx: &RefineCtx<'_>) -> bool {
    let s = ctx.positions;
    // N[i], read in place: the parent of the data node behind S[i].
    let n = |i: usize| ctx.doc_nps[(s[i] - 1) as usize];
    let max_n = (0..s.len())
        .map(n)
        .max()
        .expect("positions must be non-empty");
    for i in 0..s.len() {
        let ni = n(i);
        if ni == max_n {
            continue;
        }
        if (i + 1..s.len()).any(|j| n(j) == ni) {
            continue; // not the last occurrence
        }
        // Last occurrence of N[i], and it is not the subtree root of the
        // match: the next element must be (or lead to) its parent.
        if i + 1 == s.len() {
            return false; // nothing follows a non-max value: disconnected
        }
        // By Lemma 1 on the query, the last occurrence of N_Q[i] at
        // (0-based) index i means the node deleted next is that parent,
        // query node i + 2, whose image is N[i]: the climb from N[i] to
        // N[i + 1] verifies its edge, `edges[i + 1]`.
        let edge = ctx.edges.get(i + 1).copied().unwrap_or(EdgeKind::Child);
        if !climb_matches(ctx.doc_nps, ni, n(i + 1), edge) {
            return false;
        }
    }
    true
}

/// Does climbing the parent chain from `from` reach `target` under the
/// edge constraint?
fn climb_matches(doc_nps: &[PostNum], from: PostNum, target: PostNum, edge: EdgeKind) -> bool {
    match edge {
        EdgeKind::Child => parent_of(doc_nps, from) == Some(target),
        EdgeKind::Descendant => {
            let mut cur = from;
            loop {
                match parent_of(doc_nps, cur) {
                    Some(p) if p == target => return true,
                    // Parents have strictly larger postorder numbers, so
                    // overshooting means the target is not an ancestor.
                    Some(p) if p > target => return false,
                    Some(p) => cur = p,
                    None => return false,
                }
            }
        }
        EdgeKind::Exactly(k) => {
            let mut cur = from;
            for _ in 0..k {
                match parent_of(doc_nps, cur) {
                    Some(p) => cur = p,
                    None => return false,
                }
            }
            cur == target
        }
    }
}

/// Refinement by structure, part 1: gap consistency (Definition 3,
/// Algorithm 2 lines 5–11).
pub fn check_gap_consistency(ctx: &RefineCtx<'_>) -> bool {
    let s = ctx.positions;
    for i in 0..s.len().saturating_sub(1) {
        let data_gap =
            ctx.doc_nps[(s[i] - 1) as usize] as i64 - ctx.doc_nps[(s[i + 1] - 1) as usize] as i64;
        let query_gap = ctx.query_nps[i] as i64 - ctx.query_nps[i + 1] as i64;
        if (data_gap == 0) != (query_gap == 0) {
            return false;
        }
        if data_gap * query_gap < 0 {
            return false;
        }
        if query_gap.abs() > data_gap.abs() {
            return false;
        }
    }
    true
}

/// Refinement by structure, part 2: frequency consistency
/// (Definition 4). Implements the full *iff* — equal values must occur
/// at identical position sets in the query NPS and the matched data
/// values — by comparing, at every index, where the same value last
/// occurred before it in each sequence (see the module docs).
pub fn check_frequency_consistency(ctx: &RefineCtx<'_>) -> bool {
    let s = ctx.positions;
    debug_assert_eq!(ctx.query_nps.len(), s.len());
    let q = ctx.query_nps;
    let d = |i: usize| ctx.doc_nps[(s[i] - 1) as usize];
    for i in 1..s.len() {
        let (qi, di) = (q[i], d(i));
        // The nearest earlier index holding either value must hold both.
        for j in (0..i).rev() {
            let (same_q, same_d) = (q[j] == qi, d(j) == di);
            if same_q != same_d {
                return false;
            }
            if same_q {
                break;
            }
        }
    }
    true
}

/// Refinement by matching leaf nodes (§4.4, Example 6).
///
/// A query leaf `(l, q)` maps to data node `d = S_q`. The match holds if
/// the document's leaf list contains `(l, d)`, or — when `d` is an
/// internal node — some LPS position records `d` as a parent labeled
/// `l`.
pub fn check_leaves(ctx: &RefineCtx<'_>) -> bool {
    if ctx.skip_leaf_check {
        return true;
    }
    for &(label, q) in ctx.query_leaves {
        debug_assert!(
            (q as usize) <= ctx.positions.len(),
            "a query leaf is never the query root for multi-node queries"
        );
        let d = ctx.positions[(q - 1) as usize];
        // Leaf list is sorted by postorder: binary search.
        match ctx.doc_leaves.binary_search_by_key(&d, |&(_, p)| p) {
            Ok(idx) => {
                if ctx.doc_leaves[idx].0 != label {
                    return false;
                }
            }
            Err(_) => {
                // Internal data node: its label appears in the LPS at any
                // position whose NPS value is d (deletion of a child).
                let found = ctx
                    .doc_nps
                    .iter()
                    .zip(ctx.doc_lps.iter())
                    .any(|(&p, &l)| p == d && l == label);
                if !found {
                    return false;
                }
            }
        }
    }
    true
}

/// Runs all refinement phases in the paper's order (Algorithm 2).
pub fn refine_match(ctx: &RefineCtx<'_>) -> bool {
    check_connectedness(ctx)
        && check_gap_consistency(ctx)
        && check_frequency_consistency(ctx)
        && check_leaves(ctx)
}

/// Computes the embedding (query node → data node, both as postorder
/// numbers) witnessed by a refined match.
///
/// Internal query nodes map through the matched NPS values (all children
/// of a node agree by frequency consistency); leaves map to their match
/// positions directly.
pub fn embedding(
    query_nps: &[PostNum],
    positions: &[PostNum],
    doc_nps: &[PostNum],
) -> Vec<PostNum> {
    let mut img = Vec::new();
    embedding_into(query_nps, positions, doc_nps, &mut img);
    img
}

/// [`embedding`] written into `img`, whose contents it replaces.
pub fn embedding_into(
    query_nps: &[PostNum],
    positions: &[PostNum],
    doc_nps: &[PostNum],
    img: &mut Vec<PostNum>,
) {
    img.clear();
    img.resize(query_nps.len() + 1, 0);
    // Pass 1: every parent p = query_nps[j] maps to the data parent of
    // the match of its child j + 1.
    for (j, &p) in query_nps.iter().enumerate() {
        img[(p - 1) as usize] = doc_nps[(positions[j] - 1) as usize];
    }
    // Pass 2: leaves (never parents) map to their own positions.
    for (v, &p) in img.iter_mut().zip(positions) {
        if *v == 0 {
            *v = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::PruferSeq;
    use prix_xml::{parse_document, SymbolTable, XmlTree};

    /// The Figure 2(a) tree (see seq.rs for the derivation).
    fn figure2() -> (XmlTree, SymbolTable, PruferSeq) {
        let mut syms = SymbolTable::new();
        let (a, b, c, d, e, f, g) = (
            syms.intern("A"),
            syms.intern("B"),
            syms.intern("C"),
            syms.intern("D"),
            syms.intern("E"),
            syms.intern("F"),
            syms.intern("G"),
        );
        use prix_xml::NodeKind::Element;
        let mut t = XmlTree::with_root(a, Element);
        let root = t.root();
        t.add_child(root, c, Element); // node 1
        let n7 = t.add_child(root, b, Element);
        let n3 = t.add_child(n7, c, Element);
        t.add_child(n3, d, Element); // 2
        let n6 = t.add_child(n7, c, Element);
        t.add_child(n6, d, Element); // 4
        t.add_child(n6, e, Element); // 5
        let n9 = t.add_child(root, c, Element);
        t.add_child(n9, c, Element); // 8
        let n14 = t.add_child(root, d, Element);
        let n13 = t.add_child(n14, e, Element);
        t.add_child(n13, g, Element); // 10
        t.add_child(n13, f, Element); // 11
        t.add_child(n13, f, Element); // 12
        t.seal();
        let seq = PruferSeq::regular(&t);
        let _ = (b, f, g);
        (t, syms, seq)
    }

    fn all_child_edges(n: usize) -> Vec<EdgeKind> {
        vec![EdgeKind::Child; n]
    }

    fn ctx<'a>(
        doc: &'a PruferSeq,
        query_nps: &'a [PostNum],
        positions: &'a [PostNum],
        edges: &'a [EdgeKind],
    ) -> RefineCtx<'a> {
        RefineCtx {
            doc_nps: &doc.nps,
            query_nps,
            positions,
            edges,
            query_leaves: &[],
            doc_leaves: &[],
            doc_lps: &doc.lps,
            skip_leaf_check: true,
        }
    }

    #[test]
    fn example3_disconnected_subsequence_fails() {
        let (_, _, seq) = figure2();
        // S_A = C B C E D at positions (2,3,8,10,13), N_A = 3 7 9 13 14.
        let positions = [2, 3, 8, 10, 13];
        let nvals: Vec<u32> = positions
            .iter()
            .map(|&p| seq.nps[(p - 1) as usize])
            .collect();
        assert_eq!(nvals, vec![3, 7, 9, 13, 14]);
        let q_nps = [0u32; 5]; // connectedness ignores the query NPS
        let edges = all_child_edges(5);
        assert!(!check_connectedness(&ctx(&seq, &q_nps, &positions, &edges)));
    }

    #[test]
    fn example3_connected_subsequence_passes() {
        let (_, _, seq) = figure2();
        // S_B = C B A C A E D A at positions (2,3,7,8,9,10,13,14),
        // N_B = 3 7 15 9 15 13 14 15.
        let positions = [2, 3, 7, 8, 9, 10, 13, 14];
        let nvals: Vec<u32> = positions
            .iter()
            .map(|&p| seq.nps[(p - 1) as usize])
            .collect();
        assert_eq!(nvals, vec![3, 7, 15, 9, 15, 13, 14, 15]);
        let q_nps = [0u32; 8];
        let edges = all_child_edges(8);
        assert!(check_connectedness(&ctx(&seq, &q_nps, &positions, &edges)));
    }

    #[test]
    fn example4_gap_consistency() {
        let (_, _, seq) = figure2();
        // S1 at positions (6,7,10,11,14): N_S1 = 7 15 13 13 15.
        let positions = [6u32, 7, 10, 11, 14];
        let nvals: Vec<u32> = positions
            .iter()
            .map(|&p| seq.nps[(p - 1) as usize])
            .collect();
        assert_eq!(nvals, vec![7, 15, 13, 13, 15]);
        // S2 (the query side) has N_S2 = 2 7 6 6 7.
        let q_nps = [2u32, 7, 6, 6, 7];
        let edges = all_child_edges(5);
        assert!(check_gap_consistency(&ctx(
            &seq, &q_nps, &positions, &edges
        )));
    }

    #[test]
    fn example5_frequency_consistency() {
        let (_, _, seq) = figure2();
        let positions = [6u32, 7, 10, 11, 14];
        let q_nps = [2u32, 7, 6, 6, 7];
        let edges = all_child_edges(5);
        assert!(check_frequency_consistency(&ctx(
            &seq, &q_nps, &positions, &edges
        )));
    }

    #[test]
    fn frequency_consistency_is_an_iff() {
        let (_, _, seq) = figure2();
        // Data values at (10, 11) are 13, 13 (equal); a query NPS with
        // distinct values there must fail even though the one-directional
        // check of Algorithm 2 lines 12-15 would pass.
        let positions = [10u32, 11];
        let q_nps = [2u32, 3];
        let edges = all_child_edges(2);
        assert!(!check_frequency_consistency(&ctx(
            &seq, &q_nps, &positions, &edges
        )));
    }

    #[test]
    fn gap_consistency_rejects_sign_flips_and_zero_mismatch() {
        let (_, _, seq) = figure2();
        let positions = [6u32, 7]; // data gap = 7 - 15 = -8
        let edges = all_child_edges(2);
        // Query gap positive: sign flip.
        assert!(!check_gap_consistency(&ctx(
            &seq,
            &[9, 2],
            &positions,
            &edges
        )));
        // Query gap zero vs data gap nonzero.
        assert!(!check_gap_consistency(&ctx(
            &seq,
            &[4, 4],
            &positions,
            &edges
        )));
        // Query gap larger in magnitude than data gap.
        assert!(!check_gap_consistency(&ctx(
            &seq,
            &[9, 0],
            &positions,
            &edges
        )));
        // |q| <= |d| with matching sign: fine (-8 vs -2).
        assert!(check_gap_consistency(&ctx(
            &seq,
            &[2, 4],
            &positions,
            &edges
        )));
    }

    #[test]
    fn example2_full_match_passes_refinement() {
        let (t, syms, seq) = figure2();
        // Query of Example 2: LPS(Q) = B A E D A, NPS(Q) = 2 6 4 5 6,
        // matched at positions (6,7,11,13,14) — wait, the paper's
        // Example 2 reports (6,7,11,13,14) while Example 6 uses
        // (3,7,11,13,14); both are genuine subsequence matches, but only
        // one survives refinement with the leaves of Q. We test the
        // positions from Example 6: P = (3,7,11,13,14) with
        // N = 7 15 13 14 15.
        let positions = [3u32, 7, 11, 13, 14];
        let nvals: Vec<u32> = positions
            .iter()
            .map(|&p| seq.nps[(p - 1) as usize])
            .collect();
        assert_eq!(nvals, vec![7, 15, 13, 14, 15]);
        let q_nps = [2u32, 6, 4, 5, 6];
        let edges = all_child_edges(5);
        let c = syms.lookup("C").unwrap();
        let f = syms.lookup("F").unwrap();
        let rctx = RefineCtx {
            doc_nps: &seq.nps,
            query_nps: &q_nps,
            positions: &positions,
            edges: &edges,
            // Example 6: query leaves are (C,1) and (F,3).
            query_leaves: &[(c, 1), (f, 3)],
            doc_leaves: &t.leaves(),
            doc_lps: &seq.lps,
            skip_leaf_check: false,
        };
        assert!(check_connectedness(&rctx));
        assert!(check_gap_consistency(&rctx));
        assert!(check_frequency_consistency(&rctx));
        assert!(
            check_leaves(&rctx),
            "leaf (F,11) and internal (C,3) both match"
        );
        assert!(refine_match(&rctx));
    }

    #[test]
    fn leaf_check_fails_on_wrong_label() {
        let (t, syms, seq) = figure2();
        let positions = [3u32, 7, 11, 13, 14];
        let q_nps = [2u32, 6, 4, 5, 6];
        let edges = all_child_edges(5);
        let g = syms.lookup("G").unwrap();
        let rctx = RefineCtx {
            doc_nps: &seq.nps,
            query_nps: &q_nps,
            positions: &positions,
            edges: &edges,
            // Query leaf demands (G, 3): data node 11 is (F, 11).
            query_leaves: &[(g, 3)],
            doc_leaves: &t.leaves(),
            doc_lps: &seq.lps,
            skip_leaf_check: false,
        };
        assert!(!check_leaves(&rctx));
    }

    #[test]
    fn example7_wildcard_climb() {
        let (_, _, seq) = figure2();
        // LPS(Q) = C A, NPS(Q) = 2 3; match S = C A at positions (2, 7);
        // N = 3 15. Under Child edges connectedness fails (parent of 3 is
        // 7, not 15); under a Descendant edge on query node 2 the climb
        // 3 -> 7 -> 15 succeeds at i = 2; Exactly(2) also succeeds while
        // Exactly(1) and Exactly(3) fail.
        let positions = [2u32, 7];
        let q_nps = [2u32, 3];
        let child_edges = all_child_edges(2);
        assert!(!check_connectedness(&ctx(
            &seq,
            &q_nps,
            &positions,
            &child_edges
        )));
        let desc = [EdgeKind::Child, EdgeKind::Descendant];
        assert!(check_connectedness(&ctx(&seq, &q_nps, &positions, &desc)));
        let star2 = [EdgeKind::Child, EdgeKind::Exactly(2)];
        assert!(check_connectedness(&ctx(&seq, &q_nps, &positions, &star2)));
        let star1 = [EdgeKind::Child, EdgeKind::Exactly(1)];
        assert!(!check_connectedness(&ctx(&seq, &q_nps, &positions, &star1)));
        let star3 = [EdgeKind::Child, EdgeKind::Exactly(3)];
        assert!(!check_connectedness(&ctx(&seq, &q_nps, &positions, &star3)));
    }

    #[test]
    fn embedding_of_example6_match() {
        let (_, _, seq) = figure2();
        let positions = [3u32, 7, 11, 13, 14];
        let q_nps = [2u32, 6, 4, 5, 6];
        let img = embedding(&q_nps, &positions, &seq.nps);
        // Query nodes: 1 (leaf C), 2 (B), 3 (leaf F), 4 (E), 5 (D),
        // 6 (root A). Expected images: 1->3, 2->7, 3->11, 4->13, 5->14,
        // 6->15.
        assert_eq!(img, vec![3, 7, 11, 13, 14, 15]);
    }

    #[test]
    fn trailing_non_max_value_is_disconnected() {
        let mut syms = SymbolTable::new();
        let t = parse_document("<a><b><c/></b><d><e/></d></a>", &mut syms).unwrap();
        let seq = PruferSeq::regular(&t);
        // Positions (1, 3): N = (parent of 1, parent of 3) = (2, 4);
        // value 4 is max; value 2's last occurrence is followed by 4,
        // whose parent-of-2 check: parent of node 2 is 5 != 4 -> fail.
        let positions = [1u32, 3];
        let edges = all_child_edges(2);
        assert!(!check_connectedness(&ctx(
            &seq,
            &[0, 0],
            &positions,
            &edges
        )));
    }

    /// The checks as they were written before they stopped allocating:
    /// `N` collected into a `Vec`, first occurrences kept in `HashMap`s.
    mod reference {
        use super::super::{climb_matches, EdgeKind, RefineCtx};
        use prix_xml::PostNum;
        use std::collections::HashMap;

        pub fn check_connectedness(ctx: &RefineCtx<'_>) -> bool {
            let s = ctx.positions;
            let n: Vec<PostNum> = s.iter().map(|&p| ctx.doc_nps[(p - 1) as usize]).collect();
            let max_n = *n.iter().max().expect("positions must be non-empty");
            for i in 0..n.len() {
                if n[i] == max_n {
                    continue;
                }
                if n[i + 1..].contains(&n[i]) {
                    continue;
                }
                let Some(&target) = n.get(i + 1) else {
                    return false;
                };
                let edge = ctx.edges.get(i + 1).copied().unwrap_or(EdgeKind::Child);
                if !climb_matches(ctx.doc_nps, n[i], target, edge) {
                    return false;
                }
            }
            true
        }

        pub fn check_frequency_consistency(ctx: &RefineCtx<'_>) -> bool {
            let s = ctx.positions;
            let mut first_q: Vec<usize> = Vec::with_capacity(s.len());
            let mut first_d: Vec<usize> = Vec::with_capacity(s.len());
            let mut seen_q: HashMap<PostNum, usize> = HashMap::new();
            let mut seen_d: HashMap<PostNum, usize> = HashMap::new();
            for i in 0..s.len() {
                let q = ctx.query_nps[i];
                let d = ctx.doc_nps[(s[i] - 1) as usize];
                first_q.push(*seen_q.entry(q).or_insert(i));
                first_d.push(*seen_d.entry(d).or_insert(i));
                if first_q[i] != first_d[i] {
                    return false;
                }
            }
            true
        }
    }

    /// A seeded splitmix64: the test's only source of randomness.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The NPS of a random tree of `n` nodes (each new node under a
    /// random earlier one).
    fn random_nps(rng: &mut Mix, n: usize) -> Vec<PostNum> {
        let mut syms = SymbolTable::new();
        let label = syms.intern("x");
        let mut t = XmlTree::with_root(label, prix_xml::NodeKind::Element);
        let mut nodes = vec![t.root()];
        for _ in 1..n {
            let parent = nodes[rng.below(nodes.len() as u64) as usize];
            nodes.push(t.add_child(parent, label, prix_xml::NodeKind::Element));
        }
        t.seal();
        PruferSeq::regular(&t).nps
    }

    /// Match positions into an LPS of `len`: either a random strictly
    /// increasing subset, or every non-root node of one subtree (a
    /// connected match), possibly missing one.
    fn random_positions(rng: &mut Mix, nps: &[PostNum]) -> Vec<PostNum> {
        let len = nps.len() as PostNum;
        if rng.below(2) == 0 {
            let k = 1 + rng.below(u64::from(len.min(6))) as usize;
            loop {
                let mut s: Vec<PostNum> = (0..k)
                    .map(|_| 1 + rng.below(u64::from(len)) as PostNum)
                    .collect();
                s.sort_unstable();
                s.dedup();
                if s.len() == k {
                    return s;
                }
            }
        }
        // Postorder subtrees are contiguous: node r's is r - size + 1 ..= r.
        let mut size = vec![1 as PostNum; nps.len() + 2];
        for (i, &p) in nps.iter().enumerate() {
            size[p as usize] += size[i + 1];
        }
        let roots: Vec<PostNum> = (1..=len + 1).filter(|&r| size[r as usize] > 1).collect();
        let r = roots[rng.below(roots.len() as u64) as usize];
        let mut s: Vec<PostNum> = (r + 1 - size[r as usize]..r).collect();
        if s.len() > 1 && rng.below(3) == 0 {
            s.remove(rng.below(s.len() as u64) as usize);
        }
        s
    }

    /// A query NPS for the matched data values `d`: the same partition
    /// under other values, that partition with one index moved to
    /// another class, or values drawn from a small range.
    fn random_query_nps(rng: &mut Mix, d: &[PostNum]) -> Vec<PostNum> {
        let mut q: Vec<PostNum> = match rng.below(3) {
            0 => (0..d.len()).map(|_| 1 + rng.below(3) as PostNum).collect(),
            _ => d.iter().map(|&v| 2 * v + 7).collect(),
        };
        if rng.below(2) == 0 {
            let at = rng.below(q.len() as u64) as usize;
            let from = rng.below(q.len() as u64) as usize;
            q[at] = if rng.below(2) == 0 { q[from] } else { 1000 };
        }
        q
    }

    #[test]
    fn rewritten_checks_agree_with_the_allocating_reference() {
        let mut rng = Mix(0x5eed_0042);
        let mut verdicts = [[0u32; 2]; 2];
        for _ in 0..20_000 {
            let n = 2 + rng.below(14) as usize;
            let nps = random_nps(&mut rng, n);
            let positions = random_positions(&mut rng, &nps);
            let d: Vec<PostNum> = positions.iter().map(|&p| nps[(p - 1) as usize]).collect();
            let query_nps = random_query_nps(&mut rng, &d);
            let edges: Vec<EdgeKind> = (0..=positions.len())
                .map(|_| match rng.below(4) {
                    0 => EdgeKind::Descendant,
                    1 => EdgeKind::Exactly(1 + rng.below(3) as u32),
                    _ => EdgeKind::Child,
                })
                .collect();
            let ctx = RefineCtx {
                doc_nps: &nps,
                query_nps: &query_nps,
                positions: &positions,
                edges: &edges,
                query_leaves: &[],
                doc_leaves: &[],
                doc_lps: &[],
                skip_leaf_check: true,
            };
            let connected = check_connectedness(&ctx);
            let consistent = check_frequency_consistency(&ctx);
            let case = format!("nps {nps:?} S {positions:?} NPS(Q) {query_nps:?} edges {edges:?}");
            assert_eq!(
                connected,
                reference::check_connectedness(&ctx),
                "connectedness: {case}"
            );
            assert_eq!(
                consistent,
                reference::check_frequency_consistency(&ctx),
                "frequency consistency: {case}"
            );
            verdicts[0][usize::from(connected)] += 1;
            verdicts[1][usize::from(consistent)] += 1;
        }
        // Both verdicts of both checks come up often enough to be tested.
        for v in verdicts.iter().flatten() {
            assert!(*v > 2_000, "{verdicts:?}");
        }
    }
}
