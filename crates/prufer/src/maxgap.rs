//! The MaxGap upper-bounding distance metric (paper §5.4, Definition 5).
//!
//! `MaxGap(e, Δ)` is the maximum, over all nodes labeled `e` in the
//! collection Δ, of the difference between the postorder numbers of the
//! node's first and last children; `0` when every occurrence of `e` has
//! at most one child. Theorem 4 turns it into a pruning rule on the
//! distance between adjacent match positions during subsequence
//! matching — the optimization that lets PRIX discard, e.g., the false
//! `NP` ancestors in query Q8 (§6.4.2).

use std::collections::HashMap;

use prix_xml::{PostNum, Sym, XmlTree};

/// Per-label MaxGap values for a document collection.
#[derive(Debug, Clone, Default)]
pub struct MaxGapTable {
    gaps: HashMap<Sym, PostNum>,
}

impl MaxGapTable {
    /// Empty table (every label reports 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one document into the table.
    pub fn add_tree(&mut self, tree: &XmlTree) {
        for node in tree.nodes() {
            let kids = tree.children(node);
            if kids.is_empty() {
                continue;
            }
            let first = tree.postorder(kids[0]);
            let last = tree.postorder(kids[kids.len() - 1]);
            debug_assert!(last >= first);
            self.raise(tree.label(node), last - first);
        }
    }

    /// Records that some node labeled `label` has a gap of `gap`.
    fn raise(&mut self, label: Sym, gap: PostNum) {
        let e = self.gaps.entry(label).or_insert(0);
        *e = (*e).max(gap);
    }

    /// Folds in every label `other` has recorded: the table of two
    /// collections' union.
    pub fn merge(&mut self, other: &MaxGapTable) {
        for (label, gap) in other.entries() {
            self.raise(label, gap);
        }
    }

    /// Builds a table over a whole collection.
    pub fn build<'a>(trees: impl IntoIterator<Item = &'a XmlTree>) -> Self {
        let mut t = Self::new();
        for tree in trees {
            t.add_tree(tree);
        }
        t
    }

    /// `MaxGap(label, Δ)`; `0` for labels never seen with children.
    pub fn get(&self, label: Sym) -> PostNum {
        self.gaps.get(&label).copied().unwrap_or(0)
    }

    /// Number of labels with a recorded (possibly zero) gap.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// `true` when no label has been recorded.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Serializes to `(label, gap)` pairs (for persistence in an index).
    pub fn entries(&self) -> impl Iterator<Item = (Sym, PostNum)> + '_ {
        self.gaps.iter().map(|(&s, &g)| (s, g))
    }

    /// Rebuilds from serialized entries.
    pub fn from_entries(entries: impl IntoIterator<Item = (Sym, PostNum)>) -> Self {
        MaxGapTable {
            gaps: entries.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_xml::{parse_document, SymbolTable};

    #[test]
    fn figure5_tree_p() {
        // Tree P of Figure 5: the difference between the postorder
        // numbers of the first and last children of node label A is
        // 14 - 8 = 6; we reproduce the shape A(root) with children
        // numbered 8 and 14 via: A( C(c,c,...), ..., x ) — build a tree
        // where A's first child is postorder 8 and last is 14.
        let mut syms = SymbolTable::new();
        // a has children: b (subtree of 8 nodes -> numbers 1..8) and
        // c (subtree e.g. 6 nodes -> 9..14), root a = 15.
        let t = parse_document(
            "<a><b><x/><x/><x/><x/><x/><x/><x/></b><c><y/><y/><y/><y/><y/></c></a>",
            &mut syms,
        )
        .unwrap();
        let a = syms.lookup("a").unwrap();
        let table = MaxGapTable::build([&t]);
        assert_eq!(table.get(a), 14 - 8);
    }

    #[test]
    fn max_is_taken_across_documents() {
        let mut syms = SymbolTable::new();
        let t1 = parse_document("<a><x/><y/></a>", &mut syms).unwrap(); // gap 1
        let t2 = parse_document("<a><x/><y/><z/><w/></a>", &mut syms).unwrap(); // gap 3
        let a = syms.lookup("a").unwrap();
        let table = MaxGapTable::build([&t1, &t2]);
        assert_eq!(table.get(a), 3);
        // Folding the documents' own tables together is the same table.
        let mut merged = MaxGapTable::build([&t2]);
        merged.merge(&MaxGapTable::build([&t1]));
        assert_eq!(merged.get(a), 3);
        assert_eq!(merged.len(), table.len());
    }

    #[test]
    fn unary_labels_report_zero() {
        let mut syms = SymbolTable::new();
        let t = parse_document("<a><b><c/></b></a>", &mut syms).unwrap();
        let table = MaxGapTable::build([&t]);
        let b = syms.lookup("b").unwrap();
        let c = syms.lookup("c").unwrap();
        assert_eq!(table.get(b), 0, "b has one child");
        assert_eq!(table.get(c), 0, "c is a leaf (never seen with children)");
    }

    #[test]
    fn subtree_sizes_widen_the_gap() {
        let mut syms = SymbolTable::new();
        // a's children: b (postorder 3, subtree {1,2,3}) and c
        // (postorder 4): gap = 4 - 3 = 1... first child's number is 3.
        let t = parse_document("<a><b><u/><v/></b><c/></a>", &mut syms).unwrap();
        let a = syms.lookup("a").unwrap();
        let table = MaxGapTable::build([&t]);
        assert_eq!(table.get(a), 1);
        // With the big subtree on the right the gap widens: children of
        // a are b (1) and c (4): gap 3.
        let t2 = parse_document("<a><b/><c><u/><v/></c></a>", &mut syms).unwrap();
        let table2 = MaxGapTable::build([&t2]);
        assert_eq!(table2.get(a), 3);
    }

    #[test]
    fn entries_roundtrip() {
        let mut syms = SymbolTable::new();
        let t = parse_document("<a><x/><y/><z/></a>", &mut syms).unwrap();
        let table = MaxGapTable::build([&t]);
        let rebuilt = MaxGapTable::from_entries(table.entries());
        let a = syms.lookup("a").unwrap();
        assert_eq!(rebuilt.get(a), table.get(a));
        assert_eq!(rebuilt.len(), table.len());
    }
}
