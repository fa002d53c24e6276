//! Branch arrangements for unordered twig matching (paper §5.7).
//!
//! PRIX finds *ordered* matches; to find unordered ones, "Prüfer
//! sequences for different arrangements of the branches of the query
//! twig should be constructed and tested". This module enumerates the
//! distinct arrangements (permutations of every node's child list),
//! deduplicating structurally identical ones so `a(b,b)` yields one
//! arrangement rather than two.

use std::collections::HashSet;

use prix_prufer::EdgeKind;
use prix_xml::{NodeId, PostNum, XmlTree};

use crate::query::TwigQuery;

/// Error when a query has too many arrangements to enumerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyArrangements {
    /// The limit that was exceeded.
    pub limit: usize,
}

impl std::fmt::Display for TooManyArrangements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query has more than {} branch arrangements; unordered matching refused",
            self.limit
        )
    }
}

impl std::error::Error for TooManyArrangements {}

/// One arrangement: the rearranged query plus the mapping from its
/// postorder numbers back to the base query's postorder numbers.
pub struct Arrangement {
    /// The rearranged twig.
    pub query: TwigQuery,
    /// `base_of[arr_post - 1]` = base-query postorder number.
    pub base_of: Vec<PostNum>,
}

/// The engine's cap on distinct arrangements per unordered query: 6!,
/// every order of six branches under one node.
pub const ARRANGEMENT_LIMIT: usize = 720;

/// Enumerates the distinct branch arrangements of `q` (the identity
/// arrangement first). Fails if more than `limit` would be produced.
///
/// "Since the number of twig branches in a query is usually small, only
/// a small number of configurations need to be tested." (§5.7)
pub fn arrangements(q: &TwigQuery, limit: usize) -> Result<Vec<Arrangement>, TooManyArrangements> {
    let tree = q.tree();
    // child_orders[node] = list of permutations of that node's children.
    let mut assignments: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(tree.len());
    let mut total: usize = 1;
    for node in tree.nodes() {
        let kids = tree.children(node).to_vec();
        let perms = permutations(&kids);
        total = total.saturating_mul(perms.len());
        if total > limit.saturating_mul(8) {
            // Even before dedup this is hopeless.
            return Err(TooManyArrangements { limit });
        }
        assignments.push(perms);
    }

    // Cartesian product over nodes, building each arrangement.
    let mut out: Vec<Arrangement> = Vec::new();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut choice = vec![0usize; tree.len()];
    loop {
        let arr = build_arrangement(q, &choice, &assignments);
        if seen.insert(signature(&arr.query)) {
            out.push(arr);
            if out.len() > limit {
                return Err(TooManyArrangements { limit });
            }
        }
        // Next choice vector (odometer).
        let mut i = 0;
        loop {
            if i == choice.len() {
                // Identity arrangement is choice == [0, ...], generated
                // first because permutations() yields identity first.
                return Ok(out);
            }
            choice[i] += 1;
            if choice[i] < assignments[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

fn build_arrangement(
    q: &TwigQuery,
    choice: &[usize],
    assignments: &[Vec<Vec<NodeId>>],
) -> Arrangement {
    let base = q.tree();
    let mut tree = XmlTree::with_root(base.label(base.root()), base.kind(base.root()));
    let mut edges = vec![q.edge_of_id(base.root())];
    // new id -> base id
    let mut base_id_of: Vec<NodeId> = vec![base.root()];
    // base id -> new id
    let mut new_id_of = vec![0 as NodeId; base.len()];
    // Preorder construction with permuted child lists.
    let mut stack: Vec<NodeId> = vec![base.root()];
    while let Some(b) = stack.pop() {
        let order = &assignments[b as usize][choice[b as usize]];
        for &child in order.iter().rev() {
            stack.push(child);
        }
        if b != base.root() {
            let parent_new = new_id_of[base.parent(b).unwrap() as usize];
            let id = tree.add_child(parent_new, base.label(b), base.kind(b));
            new_id_of[b as usize] = id;
            base_id_of.push(b);
            edges.push(q.edge_of_id(b));
        }
    }
    tree.seal();
    let mut base_of = vec![0 as PostNum; tree.len()];
    for (new_id, &b) in base_id_of.iter().enumerate() {
        base_of[(tree.postorder(new_id as NodeId) - 1) as usize] = base.postorder(b);
    }
    Arrangement {
        query: TwigQuery::new(tree, edges, q.is_absolute()),
        base_of,
    }
}

/// Structural signature used to deduplicate arrangements: preorder
/// sequence of (label, kind, edge, depth).
fn signature(q: &TwigQuery) -> Vec<u64> {
    let tree = q.tree();
    let mut sig = Vec::with_capacity(tree.len() * 2);
    // Iterative preorder with explicit depth.
    let mut stack: Vec<(NodeId, u32)> = vec![(tree.root(), 0)];
    while let Some((node, depth)) = stack.pop() {
        let edge_code: u64 = match q.edge_of_id(node) {
            EdgeKind::Child => 0,
            EdgeKind::Descendant => 1,
            EdgeKind::Exactly(k) => 2 + k as u64,
        };
        sig.push(
            (tree.label(node).0 as u64) << 32
                | (depth as u64) << 8
                | edge_code << 1
                | (tree.kind(node) == prix_xml::NodeKind::Text) as u64,
        );
        for &c in tree.children(node).iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    sig
}

fn permutations(items: &[NodeId]) -> Vec<Vec<NodeId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    let mut work = items.to_vec();
    permute(&mut work, 0, &mut out);
    out
}

fn permute(work: &mut Vec<NodeId>, k: usize, out: &mut Vec<Vec<NodeId>>) {
    if k == work.len() {
        out.push(work.clone());
        return;
    }
    for i in k..work.len() {
        work.swap(k, i);
        permute(work, k + 1, out);
        work.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;
    use prix_xml::SymbolTable;

    #[test]
    fn path_query_has_one_arrangement() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//a/b/c", &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 1);
        assert_eq!(arrs[0].base_of, vec![1, 2, 3]);
    }

    #[test]
    fn two_branches_give_two_arrangements() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 2);
        // First is the identity.
        assert_eq!(arrs[0].query.display(&syms), "P(Q,R)");
        assert_eq!(arrs[1].query.display(&syms), "P(R,Q)");
        // base_of maps the flipped arrangement back: in the flipped twig
        // R is postorder 1 and base R was postorder 2.
        assert_eq!(arrs[1].base_of, vec![2, 1, 3]);
    }

    #[test]
    fn identical_branches_deduplicate() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//P[./Q]/Q", &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 1, "swapping identical branches is a no-op");
    }

    #[test]
    fn values_distinguish_branches() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath(r#"//Ref[./Author="A"][./Author="B"]"#, &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 2);
    }

    #[test]
    fn three_branches_give_six() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//e[./a][./b]/c", &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 6);
    }

    #[test]
    fn limit_is_enforced() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//e[./a][./b][./c][./d]/f", &mut syms).unwrap();
        assert!(arrangements(&q, 10).is_err()); // 5! = 120 > 10
        assert_eq!(arrangements(&q, 200).unwrap().len(), 120);
    }

    #[test]
    fn nested_branching_multiplies() {
        let mut syms = SymbolTable::new();
        // Two branching nodes with two children each: 4 arrangements.
        let q = parse_xpath("//r[./x]/s[./y]/z", &mut syms).unwrap();
        let arrs = arrangements(&q, 100).unwrap();
        assert_eq!(arrs.len(), 4);
    }

    #[test]
    fn edges_and_kinds_survive_rearrangement() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath(r#"//P[.//Q]/R[./s="v"]"#, &mut syms).unwrap();
        for arr in arrangements(&q, 100).unwrap() {
            let t = arr.query.tree();
            // Same node multiset: labels with edges.
            let mut base_sig: Vec<(u32, EdgeKind)> = (0..q.tree().len() as u32)
                .map(|id| (q.tree().label(id).0, q.edge_of_id(id)))
                .collect();
            let mut arr_sig: Vec<(u32, EdgeKind)> = (0..t.len() as u32)
                .map(|id| (t.label(id).0, arr.query.edge_of_id(id)))
                .collect();
            base_sig.sort_by_key(|x| (x.0, edge_rank(x.1)));
            arr_sig.sort_by_key(|x| (x.0, edge_rank(x.1)));
            assert_eq!(base_sig, arr_sig);
        }
    }

    fn edge_rank(e: EdgeKind) -> u32 {
        match e {
            EdgeKind::Child => 0,
            EdgeKind::Descendant => 1,
            EdgeKind::Exactly(k) => 2 + k,
        }
    }
}
