//! Ordered labeled trees with postorder numbering.
//!
//! PRIX numbers the nodes of every document tree with unique postorder
//! numbers `1..=n` (paper §3.2). [`XmlTree`] stores the tree in an arena
//! and precomputes the postorder both ways (node → number, number → node)
//! because every phase of the PRIX pipeline — Prüfer construction
//! (Lemma 1), connectedness (Theorem 2), gap/frequency consistency
//! (Theorem 3) — speaks in postorder numbers.

use crate::sym::Sym;

/// Arena index of a node within one [`XmlTree`].
pub type NodeId = u32;

/// 1-based postorder number of a node (paper §3.2).
pub type PostNum = u32;

/// What a tree node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element (or an attribute, which the paper treats as a
    /// subelement, §2).
    Element,
    /// Character data: a value leaf (CDATA / PCDATA / attribute value).
    Text,
}

/// An ordered labeled tree representing one XML document.
///
/// Nodes are stored in an arena; `NodeId` 0 is always the root. After
/// [`XmlTree::seal`] the postorder numbering is available and the tree is
/// immutable.
#[derive(Debug, Clone)]
pub struct XmlTree {
    labels: Vec<Sym>,
    kinds: Vec<NodeKind>,
    parents: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    /// node id -> postorder number (1-based)
    post: Vec<PostNum>,
    /// postorder number - 1 -> node id
    by_post: Vec<NodeId>,
}

impl XmlTree {
    /// Creates a tree with a single root node. Use [`XmlTree::add_child`]
    /// then [`XmlTree::seal`] to finish construction (or use
    /// [`crate::TreeBuilder`]).
    pub fn with_root(label: Sym, kind: NodeKind) -> Self {
        XmlTree {
            labels: vec![label],
            kinds: vec![kind],
            parents: vec![None],
            children: vec![Vec::new()],
            post: Vec::new(),
            by_post: Vec::new(),
        }
    }

    /// Appends a new child under `parent`, returning its id. Children are
    /// ordered by insertion (document order).
    ///
    /// # Panics
    /// Panics if the tree has been sealed or `parent` is out of range.
    pub fn add_child(&mut self, parent: NodeId, label: Sym, kind: NodeKind) -> NodeId {
        assert!(
            self.post.is_empty(),
            "cannot mutate a sealed XmlTree (postorder already assigned)"
        );
        let id = u32::try_from(self.labels.len()).expect("tree too large");
        self.labels.push(label);
        self.kinds.push(kind);
        self.parents.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent as usize].push(id);
        id
    }

    /// Assigns postorder numbers. Must be called exactly once, after which
    /// the tree is immutable and all postorder accessors work.
    pub fn seal(&mut self) {
        assert!(self.post.is_empty(), "XmlTree::seal called twice");
        let n = self.labels.len();
        self.post = vec![0; n];
        self.by_post = Vec::with_capacity(n);
        // Iterative postorder traversal (children in document order).
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root(), 0)];
        while let Some(&mut (node, ref mut next_child)) = stack.last_mut() {
            let kids = &self.children[node as usize];
            if *next_child < kids.len() {
                let c = kids[*next_child];
                *next_child += 1;
                stack.push((c, 0));
            } else {
                stack.pop();
                let num = self.by_post.len() as PostNum + 1;
                self.post[node as usize] = num;
                self.by_post.push(node);
            }
        }
        debug_assert_eq!(self.by_post.len(), n);
    }

    /// The root node id (always 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff the tree has exactly its root (a tree is never empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> Sym {
        self.labels[node as usize]
    }

    /// Kind of `node`.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node as usize]
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents[node as usize]
    }

    /// Children of `node` in document order.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node as usize]
    }

    /// `true` iff `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children[node as usize].is_empty()
    }

    /// Postorder number of `node` (1-based).
    ///
    /// # Panics
    /// Panics (in debug builds) if the tree is unsealed.
    #[inline]
    pub fn postorder(&self, node: NodeId) -> PostNum {
        debug_assert!(!self.post.is_empty(), "tree not sealed");
        self.post[node as usize]
    }

    /// Node with postorder number `num`.
    #[inline]
    pub fn node_at(&self, num: PostNum) -> NodeId {
        self.by_post[(num - 1) as usize]
    }

    /// Label of the node with postorder number `num`.
    #[inline]
    pub fn label_at(&self, num: PostNum) -> Sym {
        self.label(self.node_at(num))
    }

    /// Postorder number of the parent of the node numbered `num`, or
    /// `None` if `num` is the root.
    #[inline]
    pub fn parent_post(&self, num: PostNum) -> Option<PostNum> {
        self.parent(self.node_at(num)).map(|p| self.postorder(p))
    }

    /// Iterates over node ids in postorder (deletion order of Lemma 1).
    pub fn postorder_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_post.iter().copied()
    }

    /// Iterates over all node ids in arena order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.labels.len() as NodeId
    }

    /// Depth of `node` (root has depth 1).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 1;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum depth over all nodes (root-only tree has depth 1).
    pub fn max_depth(&self) -> usize {
        // Compute iteratively to avoid O(n * depth).
        let mut depth = vec![0usize; self.len()];
        depth[self.root() as usize] = 1;
        let mut max = 1;
        // Arena ids are allocated parent-before-child by construction.
        for id in 1..self.len() {
            let p = self.parents[id].expect("non-root without parent") as usize;
            depth[id] = depth[p] + 1;
            max = max.max(depth[id]);
        }
        max
    }

    /// All leaves as `(label, postorder)` pairs in increasing postorder —
    /// the "leaf node list" the paper stores alongside the NPS (§4.3).
    pub fn leaves(&self) -> Vec<(Sym, PostNum)> {
        let mut out: Vec<(Sym, PostNum)> = self
            .nodes()
            .filter(|&n| self.is_leaf(n))
            .map(|n| (self.label(n), self.postorder(n)))
            .collect();
        out.sort_by_key(|&(_, p)| p);
        out
    }

    /// `true` iff `anc` is a proper ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = desc;
        while let Some(p) = self.parent(cur) {
            if p == anc {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Extracts the subtree rooted at `node` as a standalone sealed
    /// tree (labels share the same symbol table).
    pub fn subtree(&self, node: NodeId) -> XmlTree {
        let mut out = XmlTree::with_root(self.label(node), self.kind(node));
        let mut map = vec![0 as NodeId; self.len()];
        map[node as usize] = out.root();
        // Preorder copy.
        let mut stack: Vec<NodeId> = self.children(node).iter().rev().copied().collect();
        let mut order: Vec<NodeId> = Vec::new();
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        for v in order {
            let p = map[self.parent(v).expect("descendant has a parent") as usize];
            map[v as usize] = out.add_child(p, self.label(v), self.kind(v));
        }
        out.seal();
        out
    }

    /// The subtree under each element child of the root, in document
    /// order, as standalone trees: how a wrapper document (`--split`; a
    /// monolithic export like the real DBLP file, one `<dblp>` root
    /// around every record) becomes one document per record. The root
    /// itself and any root-level text are dropped.
    pub fn element_children(&self) -> impl Iterator<Item = XmlTree> + '_ {
        self.children(self.root())
            .iter()
            .filter(|&&c| self.kind(c) == NodeKind::Element)
            .map(|&c| self.subtree(c))
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| **k == NodeKind::Element)
            .count()
    }

    /// Number of text (value) nodes.
    pub fn text_count(&self) -> usize {
        self.kinds.iter().filter(|k| **k == NodeKind::Text).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymbolTable;

    /// Builds the tree of paper Figure 2(a):
    /// A(root) with children [C, A', E', D'] where
    /// C has children [B1, B2], B1 = B(D,D), B2 = B(C,C,E),
    /// A' = A(C(G)), E' = E(E2(F,F), E3?) ... — simplified: we just need a
    /// known shape, so use a small handmade tree instead.
    fn sample() -> (XmlTree, SymbolTable) {
        let mut syms = SymbolTable::new();
        let a = syms.intern("A");
        let b = syms.intern("B");
        let c = syms.intern("C");
        let mut t = XmlTree::with_root(a, NodeKind::Element);
        let nb = t.add_child(t.root(), b, NodeKind::Element);
        let _nc1 = t.add_child(nb, c, NodeKind::Element);
        let _nc2 = t.add_child(t.root(), c, NodeKind::Element);
        t.seal();
        (t, syms)
    }

    #[test]
    fn postorder_numbers_are_one_based_and_dense() {
        let (t, _) = sample();
        let mut nums: Vec<PostNum> = t.nodes().map(|n| t.postorder(n)).collect();
        nums.sort_unstable();
        assert_eq!(nums, vec![1, 2, 3, 4]);
    }

    #[test]
    fn root_gets_the_largest_postorder_number() {
        let (t, _) = sample();
        assert_eq!(t.postorder(t.root()), t.len() as PostNum);
    }

    #[test]
    fn postorder_respects_children_before_parents() {
        let (t, _) = sample();
        for n in t.nodes() {
            if let Some(p) = t.parent(n) {
                assert!(t.postorder(n) < t.postorder(p));
            }
        }
    }

    #[test]
    fn node_at_is_inverse_of_postorder() {
        let (t, _) = sample();
        for n in t.nodes() {
            assert_eq!(t.node_at(t.postorder(n)), n);
        }
    }

    #[test]
    fn parent_post_matches_parent() {
        let (t, _) = sample();
        for n in t.nodes() {
            let num = t.postorder(n);
            match t.parent(n) {
                Some(p) => assert_eq!(t.parent_post(num), Some(t.postorder(p))),
                None => assert_eq!(t.parent_post(num), None),
            }
        }
    }

    #[test]
    fn leaves_are_sorted_by_postorder() {
        let (t, _) = sample();
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn depth_and_max_depth() {
        let (t, _) = sample();
        assert_eq!(t.depth(t.root()), 1);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn ancestor_relation() {
        let (t, _) = sample();
        let b = t.children(t.root())[0];
        let c1 = t.children(b)[0];
        assert!(t.is_ancestor(t.root(), c1));
        assert!(t.is_ancestor(b, c1));
        assert!(!t.is_ancestor(c1, b));
        assert!(!t.is_ancestor(b, t.root()));
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn mutating_after_seal_panics() {
        let (mut t, mut syms) = sample();
        let x = syms.intern("X");
        t.add_child(0, x, NodeKind::Element);
    }

    #[test]
    fn single_node_tree() {
        let mut syms = SymbolTable::new();
        let a = syms.intern("A");
        let mut t = XmlTree::with_root(a, NodeKind::Element);
        t.seal();
        assert_eq!(t.len(), 1);
        assert_eq!(t.postorder(t.root()), 1);
        assert_eq!(t.leaves(), vec![(a, 1)]);
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn subtree_extraction_preserves_structure() {
        let (t, syms) = sample();
        let b = t.children(t.root())[0];
        let sub = t.subtree(b);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.label(sub.root()), t.label(b));
        let child = sub.children(sub.root())[0];
        assert_eq!(syms.name(sub.label(child)), "C");
        assert_eq!(sub.postorder(sub.root()), 2);
    }

    #[test]
    fn subtree_of_root_is_a_copy() {
        let (t, _) = sample();
        let copy = t.subtree(t.root());
        assert_eq!(copy.len(), t.len());
        for n in 1..=t.len() as PostNum {
            assert_eq!(copy.label_at(n), t.label_at(n));
            assert_eq!(copy.parent_post(n), t.parent_post(n));
        }
    }
}
