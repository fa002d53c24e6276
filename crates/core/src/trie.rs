//! The virtual trie (paper §5.2.1), built whole in memory.
//!
//! PRIX stores every LPS in a trie whose nodes carry `(LeftPos,
//! RightPos)` ranges satisfying the containment property: the range of a
//! node strictly contains the ranges of its descendants, so "all
//! descendants of node A labeled e" becomes a range query on e's
//! Trie-Symbol index. The trie itself is *virtual*: after labeling, only
//! the per-node `(symbol, level, left, right)` tuples and the per-path
//! document endpoints are stored.
//!
//! PRIX's own indexes never build this structure: a segment is labeled
//! by the streaming trie of `prix_storage::segment` (the exact labels
//! [`LabelingMode::Exact`] gives), and the delta labels each insert as
//! it arrives (`PrixIndex::insert`). What remains here serves the ViST
//! baseline, which reuses the trie over its own alphabet, and the
//! comparison of the two labeling schemes:
//!
//! * [`LabelingMode::Exact`] — a bulk DFS numbering (left = preorder
//!   rank, right = max left in subtree). Tight ranges, no underflow;
//!   what an offline bulk build can always do.
//! * [`LabelingMode::Dynamic`] — reproduces the paper's hybrid scheme:
//!   nodes within the first `alpha` levels get ranges **pre-allocated
//!   proportionally to the frequency and length of the sequences sharing
//!   them** (§5.2.1), deeper nodes get half-of-remaining-scope splits as
//!   they arrive, the policy that suffers *scope underflows* on long
//!   sequences. Underflows are counted (and resolved by falling back to
//!   exact allocation for the affected subtree, keeping the labeling
//!   valid).

use prix_xml::{DocId, Sym};

/// How (LeftPos, RightPos) ranges are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelingMode {
    /// Bulk DFS numbering; tight and underflow-free.
    Exact,
    /// The paper's hybrid scheme: frequency/length-based pre-allocation
    /// for the first `alpha` levels, dynamic halving below.
    Dynamic {
        /// Prefix depth that receives pre-allocated ranges.
        alpha: usize,
    },
}

struct TrieNode {
    sym: Sym,
    /// Depth in the trie = 1-based position in the LPS.
    level: u32,
    /// Children as (symbol, node) pairs, kept sorted by symbol.
    children: Vec<(Sym, u32)>,
    /// Documents whose LPS ends exactly at this node.
    doc_ends: Vec<DocId>,
    left: u64,
    right: u64,
    /// Number of sequences passing through or ending at this node.
    weight: u64,
    /// Total remaining length of those sequences below this node.
    tail_len: u64,
}

/// An in-memory trie over LPS's, labeled with containment ranges.
pub struct VirtualTrie {
    nodes: Vec<TrieNode>,
    underflows: u64,
}

/// A labeled trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledNode {
    /// The symbol at this trie position.
    pub sym: Sym,
    /// 1-based LPS position (trie depth).
    pub level: u32,
    /// LeftPos of the containment range.
    pub left: u64,
    /// RightPos of the containment range.
    pub right: u64,
}

impl VirtualTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        VirtualTrie {
            nodes: vec![TrieNode {
                sym: Sym(u32::MAX),
                level: 0,
                children: Vec::new(),
                doc_ends: Vec::new(),
                left: 0,
                right: u64::MAX,
                weight: 0,
                tail_len: 0,
            }],
            underflows: 0,
        }
    }

    /// Inserts one LPS, recording that `doc` ends at its final node.
    ///
    /// Only whole LPS's are stored — "the suffixes of the LPS's need not
    /// be indexed at all" (§5.2.1) because subsequence matching runs
    /// range queries instead.
    pub fn insert(&mut self, seq: &[Sym], doc: DocId) {
        let mut cur = 0u32;
        for (depth, &sym) in seq.iter().enumerate() {
            self.nodes[cur as usize].weight += 1;
            self.nodes[cur as usize].tail_len += (seq.len() - depth) as u64;
            cur = match self.nodes[cur as usize]
                .children
                .binary_search_by_key(&sym, |&(s, _)| s)
            {
                Ok(i) => self.nodes[cur as usize].children[i].1,
                Err(i) => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode {
                        sym,
                        level: (depth + 1) as u32,
                        children: Vec::new(),
                        doc_ends: Vec::new(),
                        left: 0,
                        right: 0,
                        weight: 0,
                        tail_len: 0,
                    });
                    self.nodes[cur as usize].children.insert(i, (sym, id));
                    id
                }
            };
        }
        self.nodes[cur as usize].weight += 1;
        self.nodes[cur as usize].doc_ends.push(doc);
    }

    /// Assigns ranges according to `mode`. Must be called once, after all
    /// inserts.
    pub fn assign_ranges(&mut self, mode: LabelingMode) {
        match mode {
            LabelingMode::Exact => self.assign_exact(),
            LabelingMode::Dynamic { alpha } => self.assign_dynamic(alpha),
        }
    }

    fn subtree_sizes(&self) -> Vec<u64> {
        // Children were allocated after parents, so a reverse scan
        // accumulates subtree sizes bottom-up.
        let mut size = vec![1u64; self.nodes.len()];
        for id in (0..self.nodes.len()).rev() {
            for &(_, c) in &self.nodes[id].children {
                size[id] += size[c as usize];
            }
        }
        size
    }

    fn assign_exact(&mut self) {
        let mut counter = 0u64;
        // Iterative DFS: (node, next child index).
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        self.nodes[0].left = 0;
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            if *next == 0 && id != 0 {
                counter += 1;
                self.nodes[id as usize].left = counter;
            }
            if *next < self.nodes[id as usize].children.len() {
                let c = self.nodes[id as usize].children[*next].1;
                *next += 1;
                stack.push((c, 0));
            } else {
                stack.pop();
                self.nodes[id as usize].right = counter.max(self.nodes[id as usize].left);
            }
        }
        self.nodes[0].right = u64::MAX;
    }

    fn assign_dynamic(&mut self, alpha: usize) {
        let sizes = self.subtree_sizes();
        // (node, scope_lo, scope_hi): the node takes `scope_lo` as its
        // left and must fit its subtree's lefts inside (scope_lo,
        // scope_hi].
        let mut stack: Vec<(u32, u64, u64)> = vec![(0, 0, u64::MAX / 2)];
        while let Some((id, lo, hi)) = stack.pop() {
            let node = &mut self.nodes[id as usize];
            node.left = lo;
            node.right = hi;
            let kids: Vec<(u32, u64, u64)> = {
                let children: Vec<u32> = self.nodes[id as usize]
                    .children
                    .iter()
                    .map(|&(_, c)| c)
                    .collect();
                if children.is_empty() {
                    continue;
                }
                // Invariant (established by the root's huge scope and
                // maintained below): a node's scope always holds at least
                // its subtree size, so an exact-size fallback always fits.
                let mut remaining_lo = lo + 1;
                let mut rest_needed: u64 = children.iter().map(|&c| sizes[c as usize]).sum();
                let mut out = Vec::with_capacity(children.len());
                let in_prealloc = (self.nodes[id as usize].level as usize) < alpha;
                let total_wl: u64 = children
                    .iter()
                    .map(|&c| self.nodes[c as usize].weight + self.nodes[c as usize].tail_len)
                    .sum::<u64>()
                    .max(1);
                let span = hi.saturating_sub(lo);
                for &c in &children {
                    let size = sizes[c as usize];
                    rest_needed -= size;
                    let available = hi.saturating_sub(remaining_lo).saturating_add(1);
                    debug_assert!(available >= size + rest_needed);
                    let wish = if in_prealloc {
                        // Pre-allocated zone: share proportional to
                        // frequency x remaining length (§5.2.1),
                        // targeting ~50% fill so later siblings and
                        // future incremental inserts keep headroom.
                        let w = self.nodes[c as usize].weight + self.nodes[c as usize].tail_len;
                        ((span / 2) / total_wl).saturating_mul(w)
                    } else {
                        // Dynamic zone: half of the remaining scope — the
                        // policy that underflows on long sequences and
                        // large alphabets.
                        available / 2
                    };
                    let ceiling = available - rest_needed;
                    let mut share = wish.min(ceiling);
                    if share < size {
                        // Scope underflow: the allocation policy's share
                        // cannot hold the subtree. Count it and fall back
                        // to an exact-size allocation (which fits by the
                        // invariant).
                        if !in_prealloc {
                            self.underflows += 1;
                        }
                        share = size;
                    }
                    let child_hi = remaining_lo + share - 1;
                    out.push((c, remaining_lo, child_hi));
                    remaining_lo = child_hi + 1;
                }
                out
            };
            stack.extend(kids);
        }
        self.nodes[0].left = 0;
        self.nodes[0].right = u64::MAX;
    }

    /// Number of scope underflows hit during dynamic labeling.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Number of trie nodes (excluding the virtual root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of distinct root-to-leaf paths (trie leaves): the
    /// structural sharing the paper highlights for DBLP (§6.4.2) is
    /// how far below the number of sequences this stays.
    pub fn leaf_count(&self) -> usize {
        self.nodes[1..]
            .iter()
            .filter(|n| n.children.is_empty())
            .count()
    }

    /// Iterates over all labeled (non-root) nodes.
    pub fn for_each_node(&self, mut f: impl FnMut(LabeledNode)) {
        for n in &self.nodes[1..] {
            f(LabeledNode {
                sym: n.sym,
                level: n.level,
                left: n.left,
                right: n.right,
            });
        }
    }

    /// Iterates over `(left_of_end_node, doc)` pairs.
    pub fn for_each_doc_end(&self, mut f: impl FnMut(u64, DocId)) {
        for n in &self.nodes[1..] {
            for &d in &n.doc_ends {
                f(n.left, d);
            }
        }
        for &d in &self.nodes[0].doc_ends {
            f(self.nodes[0].left, d);
        }
    }

    /// Validates the containment property: every node's range lies
    /// strictly inside its parent's `(left, right]`, sibling ranges are
    /// disjoint. Returns the number of violations (tests expect 0).
    pub fn validate_containment(&self) -> usize {
        let mut violations = 0;
        for (id, n) in self.nodes.iter().enumerate() {
            let mut prev_hi: Option<u64> = None;
            for &(_, c) in &n.children {
                let ch = &self.nodes[c as usize];
                if !(ch.left > n.left && ch.right <= n.right && ch.left <= ch.right) {
                    violations += 1;
                }
                if id != 0 {
                    if let Some(p) = prev_hi {
                        if ch.left <= p {
                            violations += 1;
                        }
                    }
                }
                prev_hi = Some(ch.right);
            }
        }
        violations
    }
}

impl Default for VirtualTrie {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<Sym> {
        s.chars().map(|c| Sym(c as u32)).collect()
    }

    fn build(seqs: &[&str], mode: LabelingMode) -> VirtualTrie {
        let mut t = VirtualTrie::new();
        for (i, s) in seqs.iter().enumerate() {
            t.insert(&syms(s), i as DocId);
        }
        t.assign_ranges(mode);
        t
    }

    /// The labeled node reached by following `seq` from the root.
    fn locate(t: &VirtualTrie, seq: &str) -> Option<LabeledNode> {
        let mut cur = 0u32;
        for sym in syms(seq) {
            let kids = &t.nodes[cur as usize].children;
            let i = kids.binary_search_by_key(&sym, |&(s, _)| s).ok()?;
            cur = kids[i].1;
        }
        let n = &t.nodes[cur as usize];
        Some(LabeledNode {
            sym: n.sym,
            level: n.level,
            left: n.left,
            right: n.right,
        })
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let t = build(&["ABC", "ABD", "AB"], LabelingMode::Exact);
        // Nodes: A, B, C, D.
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn exact_labeling_has_containment() {
        let t = build(
            &["ACBCCBACAEEEDA", "ACB", "ACBD", "XYZ", "XYA"],
            LabelingMode::Exact,
        );
        assert_eq!(t.validate_containment(), 0);
    }

    #[test]
    fn dynamic_labeling_has_containment_too() {
        let t = build(
            &["ACBCCBACAEEEDA", "ACB", "ACBD", "XYZ", "XYA", "ABABABABAB"],
            LabelingMode::Dynamic { alpha: 2 },
        );
        assert_eq!(t.validate_containment(), 0);
    }

    #[test]
    fn dynamic_labeling_underflows_on_long_sequences() {
        // A long chain under a tiny dynamic scope: halving must underflow.
        let long: String = "AB".repeat(40);
        let seqs: Vec<String> = (0..4).map(|i| format!("{long}{i}")).collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let t = build(&refs, LabelingMode::Dynamic { alpha: 0 });
        assert_eq!(t.validate_containment(), 0, "fallback keeps labels valid");
        assert!(t.underflows() > 0, "halving a chain must underflow");
        let exact = build(&refs, LabelingMode::Exact);
        assert_eq!(exact.underflows(), 0);
    }

    #[test]
    fn doc_ends_are_recorded_at_final_nodes() {
        let t = build(&["AB", "AB", "ABC"], LabelingMode::Exact);
        let ab = locate(&t, "AB").unwrap();
        let mut ends: Vec<(u64, DocId)> = Vec::new();
        t.for_each_doc_end(|l, d| ends.push((l, d)));
        ends.sort();
        // Docs 0 and 1 end at node AB, doc 2 at ABC.
        let abc = locate(&t, "ABC").unwrap();
        assert!(ends.contains(&(ab.left, 0)));
        assert!(ends.contains(&(ab.left, 1)));
        assert!(ends.contains(&(abc.left, 2)));
    }

    #[test]
    fn descendant_ranges_nest() {
        let t = build(&["ABC", "ABD"], LabelingMode::Exact);
        let a = locate(&t, "A").unwrap();
        let ab = locate(&t, "AB").unwrap();
        let abc = locate(&t, "ABC").unwrap();
        let abd = locate(&t, "ABD").unwrap();
        assert!(a.left < ab.left && ab.right <= a.right);
        assert!(ab.left < abc.left && abc.right <= ab.right);
        assert!(ab.left < abd.left && abd.right <= ab.right);
        // Siblings are disjoint.
        assert!(abc.right < abd.left || abd.right < abc.left);
    }

    #[test]
    fn levels_are_lps_positions() {
        let t = build(&["XYZ"], LabelingMode::Exact);
        assert_eq!(locate(&t, "X").unwrap().level, 1);
        assert_eq!(locate(&t, "XY").unwrap().level, 2);
        assert_eq!(locate(&t, "XYZ").unwrap().level, 3);
    }

    #[test]
    fn empty_sequence_ends_at_root() {
        let mut t = VirtualTrie::new();
        t.insert(&[], 7);
        t.assign_ranges(LabelingMode::Exact);
        let mut ends = Vec::new();
        t.for_each_doc_end(|l, d| ends.push((l, d)));
        assert_eq!(ends, vec![(0, 7)]);
    }
}
