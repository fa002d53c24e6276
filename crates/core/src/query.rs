//! Twig queries.
//!
//! A [`TwigQuery`] is an ordered labeled tree (like a document) plus a
//! structural constraint on every node's edge to its parent
//! ([`EdgeKind`]): `/` (child), `//` (descendant), or a `*`-chain
//! (exact distance). Value predicates are ordinary [`NodeKind::Text`]
//! leaves, exactly as the paper treats values (§2, §5.6).

use prix_prufer::{EdgeKind, ExtendedTree, PruferSeq};
use prix_xml::{InternSyms, NodeId, NodeKind, PostNum, Sym, SymbolTable, XmlTree};

/// Comparison operator of a value predicate (`[tag op literal]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `starts-with(path, "prefix")`
    StartsWith,
}

impl PredOp {
    /// The operator as it appears in XPath.
    pub fn token(self) -> &'static str {
        match self {
            PredOp::Eq => "=",
            PredOp::Ne => "!=",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
            PredOp::StartsWith => "starts-with",
        }
    }
}

/// The literal a value predicate compares against. Numeric literals get
/// numeric comparison semantics (the leaf text is parsed as `f64`);
/// string literals compare byte-exactly (`=`) or by prefix
/// (`starts-with`).
#[derive(Debug, Clone, PartialEq)]
pub enum PredValue {
    /// Unquoted numeric literal (`[price < 10]`).
    Num(f64),
    /// Quoted string literal (`[id = "x7"]`).
    Str(String),
}

/// A value predicate attached to one query node: the node's image must
/// have a leaf child whose *label text* satisfies `op literal`.
///
/// Predicates never add nodes to the twig; the structural part of
/// `//book[price < 10]` is exactly `//book[price]`, and the predicate
/// filters its matches. Matching is label-based, consistent with how
/// the structural engines treat values: a childless element and a text
/// node with the same label are indistinguishable to Prüfer matching,
/// so they are indistinguishable to predicates too.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuePred {
    /// Arena id (in [`TwigQuery::tree`]) of the node the predicate
    /// constrains.
    pub node: NodeId,
    /// Comparison operator.
    pub op: PredOp,
    /// Literal to compare against.
    pub value: PredValue,
}

impl ValuePred {
    /// Whether a leaf label `s` satisfies this predicate. This is the
    /// single definition of predicate truth: the valix probe ranges,
    /// the positional verification during refinement, and the test
    /// oracles all reduce to it.
    pub fn accepts(&self, s: &str) -> bool {
        match &self.value {
            PredValue::Num(lit) => match s.parse::<f64>() {
                Ok(v) => match self.op {
                    PredOp::Eq => v == *lit,
                    PredOp::Ne => v != *lit,
                    PredOp::Lt => v < *lit,
                    PredOp::Le => v <= *lit,
                    PredOp::Gt => v > *lit,
                    PredOp::Ge => v >= *lit,
                    PredOp::StartsWith => false,
                },
                Err(_) => false,
            },
            PredValue::Str(lit) => match self.op {
                PredOp::Eq => s == lit.as_str(),
                PredOp::StartsWith => s.starts_with(lit.as_str()),
                _ => false,
            },
        }
    }

    /// Renders `op literal` (e.g. `< 10`, `= "x7"`).
    pub fn render_op(&self) -> String {
        match (&self.value, self.op) {
            (PredValue::Str(s), PredOp::StartsWith) => format!("starts-with \"{s}\""),
            (PredValue::Str(s), op) => format!("{} \"{s}\"", op.token()),
            (PredValue::Num(n), op) => format!("{} {n}", op.token()),
        }
    }
}

/// A twig pattern with per-edge structural constraints.
#[derive(Debug, Clone)]
pub struct TwigQuery {
    tree: XmlTree,
    /// Edge kind per node id (arena order); root entry is unused.
    edges_by_id: Vec<EdgeKind>,
    /// `true` when the query began with a single `/`: the twig root must
    /// be the document root.
    absolute: bool,
    /// Value predicates over node images (empty for purely structural
    /// queries — the overwhelmingly common case).
    preds: Vec<ValuePred>,
}

impl TwigQuery {
    /// Wraps an already-built tree; `edges_by_id[node as usize]` gives
    /// the constraint on the node's edge to its parent.
    pub fn new(tree: XmlTree, edges_by_id: Vec<EdgeKind>, absolute: bool) -> Self {
        assert_eq!(tree.len(), edges_by_id.len());
        TwigQuery {
            tree,
            edges_by_id,
            absolute,
            preds: Vec::new(),
        }
    }

    /// [`TwigQuery::new`] with value predicates attached.
    pub fn with_preds(
        tree: XmlTree,
        edges_by_id: Vec<EdgeKind>,
        absolute: bool,
        preds: Vec<ValuePred>,
    ) -> Self {
        let mut q = TwigQuery::new(tree, edges_by_id, absolute);
        for p in &preds {
            assert!(
                (p.node as usize) < q.tree.len(),
                "predicate node out of range"
            );
        }
        q.preds = preds;
        q
    }

    /// Value predicates attached to this query.
    pub fn preds(&self) -> &[ValuePred] {
        &self.preds
    }

    /// This query with its value predicates stripped — the structural
    /// part whose matches the predicates filter.
    pub fn without_preds(&self) -> TwigQuery {
        let mut q = self.clone();
        q.preds.clear();
        q
    }

    /// The query twig as a tree.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// Whether the twig root must match the document root.
    pub fn is_absolute(&self) -> bool {
        self.absolute
    }

    /// Edge kind of the node with arena id `id`.
    pub fn edge_of_id(&self, id: NodeId) -> EdgeKind {
        self.edges_by_id[id as usize]
    }

    /// Edge kinds indexed by postorder number (`out[q - 1]` = edge of
    /// the node numbered `q`); the layout the refinement phases consume.
    pub fn edges_by_post(&self) -> Vec<EdgeKind> {
        let mut out = vec![EdgeKind::Child; self.tree.len()];
        for id in self.tree.nodes() {
            out[(self.tree.postorder(id) - 1) as usize] = self.edges_by_id[id as usize];
        }
        out
    }

    /// Regular-Prüfer sequence of the twig (§3.3).
    pub fn prufer(&self) -> PruferSeq {
        PruferSeq::regular(&self.tree)
    }

    /// Extended twig: tree with dummies, sequences, and edge kinds in
    /// extended postorder (dummies get [`EdgeKind::Child`]).
    pub fn extended(&self, dummy: Sym) -> ExtendedQuery {
        let ext = ExtendedTree::build(&self.tree, dummy);
        let seq = PruferSeq::regular(&ext.tree);
        let base_edges = self.edges_by_post();
        let edges: Vec<EdgeKind> = (1..=ext.tree.len() as PostNum)
            .map(|e| match ext.to_original(e) {
                Some(orig) => base_edges[(orig - 1) as usize],
                None => EdgeKind::Child,
            })
            .collect();
        ExtendedQuery { ext, seq, edges }
    }

    /// Leaf list `(label, postorder)` of the twig.
    pub fn leaves(&self) -> Vec<(Sym, PostNum)> {
        self.tree.leaves()
    }

    /// `true` when the query must be answered through the EPIndex:
    /// it contains value leaves (the paper's optimizer rule, §5.6), has
    /// a non-`/` edge directly above a leaf (whose label would otherwise
    /// never be checked — regular LPS's contain no leaf labels), or is a
    /// single node.
    pub fn needs_extended(&self) -> bool {
        if self.tree.len() == 1 {
            return true;
        }
        for id in self.tree.nodes() {
            if self.tree.kind(id) == NodeKind::Text {
                return true;
            }
            if self.tree.is_leaf(id) && self.edges_by_id[id as usize] != EdgeKind::Child {
                return true;
            }
        }
        false
    }

    /// Renders the twig in a compact single-line form for debugging.
    pub fn display(&self, syms: &SymbolTable) -> String {
        let mut out = String::new();
        self.fmt_node(self.tree.root(), syms, &mut out);
        out
    }

    fn fmt_node(&self, node: NodeId, syms: &SymbolTable, out: &mut String) {
        match self.edges_by_id[node as usize] {
            EdgeKind::Child => {}
            EdgeKind::Descendant => out.push('~'),
            EdgeKind::Exactly(k) => out.push_str(&format!("^{k}")),
        }
        if self.tree.kind(node) == NodeKind::Text {
            out.push('"');
            out.push_str(syms.name(self.tree.label(node)));
            out.push('"');
        } else {
            out.push_str(syms.name(self.tree.label(node)));
        }
        for p in self.preds.iter().filter(|p| p.node == node) {
            out.push('{');
            out.push_str(&p.render_op());
            out.push('}');
        }
        let kids = self.tree.children(node);
        if !kids.is_empty() {
            out.push('(');
            for (i, &c) in kids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                self.fmt_node(c, syms, out);
            }
            out.push(')');
        }
    }
}

/// The extended form of a twig query (per §5.6).
pub struct ExtendedQuery {
    /// Extended tree plus mapping back to original postorder numbers.
    pub ext: ExtendedTree,
    /// Sequences of the extended twig.
    pub seq: PruferSeq,
    /// Edge kinds in extended postorder.
    pub edges: Vec<EdgeKind>,
}

/// Push-style construction of a [`TwigQuery`].
///
/// ```
/// use prix_xml::SymbolTable;
/// use prix_core::TwigBuilder;
/// use prix_prufer::EdgeKind;
/// let mut syms = SymbolTable::new();
/// // //inproceedings[./author="Jim Gray"][./year="1990"]
/// let mut b = TwigBuilder::new(&mut syms, "inproceedings");
/// b.child("author", EdgeKind::Child);
/// b.value("Jim Gray");
/// b.up();
/// b.child("year", EdgeKind::Child);
/// b.value("1990");
/// b.up();
/// let q = b.finish();
/// assert_eq!(q.tree().len(), 5);
/// assert!(q.needs_extended());
/// ```
pub struct TwigBuilder<'a, S: InternSyms = SymbolTable> {
    syms: &'a mut S,
    tree: XmlTree,
    edges: Vec<EdgeKind>,
    stack: Vec<NodeId>,
    absolute: bool,
    preds: Vec<ValuePred>,
}

impl<'a, S: InternSyms> TwigBuilder<'a, S> {
    /// Starts a twig rooted at `root_tag` (relative: `//root_tag`).
    pub fn new(syms: &'a mut S, root_tag: &str) -> Self {
        let sym = syms.intern_sym(root_tag);
        let tree = XmlTree::with_root(sym, NodeKind::Element);
        TwigBuilder {
            syms,
            stack: vec![tree.root()],
            tree,
            edges: vec![EdgeKind::Child],
            absolute: false,
            preds: Vec::new(),
        }
    }

    /// Marks the query as absolute (`/root_tag/...`): the twig root must
    /// be the document root.
    pub fn absolute(&mut self) -> &mut Self {
        self.absolute = true;
        self
    }

    /// Opens a child element with the given edge constraint and descends
    /// into it.
    pub fn child(&mut self, tag: &str, edge: EdgeKind) -> &mut Self {
        let sym = self.syms.intern_sym(tag);
        let parent = *self.stack.last().expect("twig stack empty");
        let id = self.tree.add_child(parent, sym, NodeKind::Element);
        self.edges.push(edge);
        self.stack.push(id);
        self
    }

    /// Adds a value (text) leaf under the current node with a `/` edge.
    pub fn value(&mut self, text: &str) -> &mut Self {
        let sym = self.syms.intern_sym(text);
        let parent = *self.stack.last().expect("twig stack empty");
        self.tree.add_child(parent, sym, NodeKind::Text);
        self.edges.push(EdgeKind::Child);
        self
    }

    /// Attaches a value predicate to the current node: its image must
    /// have a leaf child whose label satisfies `op value`.
    pub fn pred(&mut self, op: PredOp, value: PredValue) -> &mut Self {
        let node = *self.stack.last().expect("twig stack empty");
        self.preds.push(ValuePred { node, op, value });
        self
    }

    /// Closes the current node.
    pub fn up(&mut self) -> &mut Self {
        assert!(self.stack.len() > 1, "up() would close the twig root");
        self.stack.pop();
        self
    }

    /// Seals the twig.
    pub fn finish(self) -> TwigQuery {
        let mut tree = self.tree;
        tree.seal();
        TwigQuery::with_preds(tree, self.edges, self.absolute, self.preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1(syms: &mut SymbolTable) -> TwigQuery {
        let mut b = TwigBuilder::new(syms, "inproceedings");
        b.child("author", EdgeKind::Child);
        b.value("Jim Gray");
        b.up();
        b.child("year", EdgeKind::Child);
        b.value("1990");
        b.up();
        b.finish()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let mut syms = SymbolTable::new();
        let q = q1(&mut syms);
        let t = q.tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.children(t.root()).len(), 2);
        // Postorder: "Jim Gray"=1, author=2, "1990"=3, year=4, root=5.
        assert_eq!(syms.name(t.label_at(2)), "author");
        assert_eq!(syms.name(t.label_at(1)), "Jim Gray");
        assert_eq!(t.kind(t.node_at(1)), NodeKind::Text);
    }

    #[test]
    fn edges_by_post_permutes_correctly() {
        let mut syms = SymbolTable::new();
        let mut b = TwigBuilder::new(&mut syms, "S");
        b.child("NP", EdgeKind::Descendant);
        b.child("SYM", EdgeKind::Child);
        let q = b.finish();
        // Postorder: SYM=1, NP=2, S=3.
        let e = q.edges_by_post();
        assert_eq!(e[0], EdgeKind::Child); // SYM
        assert_eq!(e[1], EdgeKind::Descendant); // NP
    }

    #[test]
    fn needs_extended_rules() {
        let mut syms = SymbolTable::new();
        // Values -> extended.
        assert!(q1(&mut syms).needs_extended());
        // Element-only with child leaf edges -> regular.
        let mut b = TwigBuilder::new(&mut syms, "NP");
        b.child("RBR_OR_JJR", EdgeKind::Child).up();
        b.child("PP", EdgeKind::Child);
        let q8 = b.finish();
        assert!(!q8.needs_extended());
        // Descendant edge above a leaf -> extended.
        let mut b = TwigBuilder::new(&mut syms, "Entry");
        b.child("from", EdgeKind::Descendant);
        let q = b.finish();
        assert!(q.needs_extended());
        // Single node -> extended.
        let b = TwigBuilder::new(&mut syms, "lonely");
        assert!(b.finish().needs_extended());
    }

    #[test]
    fn extended_query_edges_follow_originals() {
        let mut syms = SymbolTable::new();
        let mut b = TwigBuilder::new(&mut syms, "S");
        b.child("NP", EdgeKind::Descendant);
        b.child("SYM", EdgeKind::Child);
        let q = b.finish();
        let dummy = syms.intern("\u{1}d");
        let eq = q.extended(dummy);
        // Extended tree: S(NP(SYM(dummy))) -> 4 nodes.
        assert_eq!(eq.ext.tree.len(), 4);
        // Postorder: dummy=1, SYM=2, NP=3, S=4.
        assert_eq!(eq.edges[0], EdgeKind::Child); // dummy
        assert_eq!(eq.edges[1], EdgeKind::Child); // SYM
        assert_eq!(eq.edges[2], EdgeKind::Descendant); // NP
        assert_eq!(eq.seq.len(), 3);
    }

    #[test]
    fn display_is_readable() {
        let mut syms = SymbolTable::new();
        let mut b = TwigBuilder::new(&mut syms, "S");
        b.child("NP", EdgeKind::Descendant);
        b.child("SYM", EdgeKind::Exactly(2));
        let q = b.finish();
        assert_eq!(q.display(&syms), "S(~NP(^2SYM))");
    }

    #[test]
    fn absolute_flag() {
        let mut syms = SymbolTable::new();
        let mut b = TwigBuilder::new(&mut syms, "dblp");
        b.absolute();
        let q = b.finish();
        assert!(q.is_absolute());
    }

    #[test]
    fn preds_attach_strip_and_display() {
        let mut syms = SymbolTable::new();
        let mut b = TwigBuilder::new(&mut syms, "book");
        b.child("price", EdgeKind::Child);
        b.pred(PredOp::Lt, PredValue::Num(10.0));
        b.up();
        let q = b.finish();
        assert_eq!(q.preds().len(), 1);
        assert_eq!(q.display(&syms), "book(price{< 10})");
        // The stripped query is the structural part, displayed without
        // any predicate decoration.
        let bare = q.without_preds();
        assert!(bare.preds().is_empty());
        assert_eq!(bare.display(&syms), "book(price)");
        // Predicates don't force the EPIndex: the structural part is
        // element-only.
        assert!(!q.needs_extended());
    }

    #[test]
    fn accepts_follows_operator_semantics() {
        let num = |op| ValuePred {
            node: 0,
            op,
            value: PredValue::Num(10.0),
        };
        assert!(num(PredOp::Lt).accepts("9.5"));
        assert!(!num(PredOp::Lt).accepts("10"));
        assert!(num(PredOp::Le).accepts("10.0"));
        assert!(num(PredOp::Eq).accepts("10"));
        assert!(num(PredOp::Ne).accepts("11"));
        assert!(num(PredOp::Gt).accepts("1e3"));
        assert!(num(PredOp::Ge).accepts("10"));
        // Non-numeric text never satisfies a numeric predicate.
        assert!(!num(PredOp::Ne).accepts("cheap"));
        let s = |op, lit: &str| ValuePred {
            node: 0,
            op,
            value: PredValue::Str(lit.to_string()),
        };
        assert!(s(PredOp::Eq, "x7").accepts("x7"));
        assert!(!s(PredOp::Eq, "x7").accepts("x70"));
        assert!(s(PredOp::StartsWith, "x7").accepts("x70"));
        assert!(!s(PredOp::StartsWith, "x7").accepts("ax7"));
    }
}
