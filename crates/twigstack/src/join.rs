//! PathStack / TwigStack / TwigStackXB (Bruno et al., SIGMOD 2002).
//!
//! The holistic stack-join algorithms the PRIX paper benchmarks
//! against. One linked stack per query node encodes partial solutions
//! compactly; `getNext` returns the next query node with a guaranteed
//! *descendant* extension (optimal for `//` edges); path solutions are
//! emitted whenever a leaf element is pushed, and a **merge
//! post-processing step** joins path solutions into twig matches.
//!
//! Faithfully reproduced behaviours the PRIX paper measures:
//!
//! * parent-child edges are only enforced during the merge step, so the
//!   stack phase *accepts* near misses where an ancestor is not a
//!   parent — the "sub-optimality for parent/child relationships" that
//!   query Q8 exposes (§2, §6.4.2),
//! * TwigStackXB replaces each stream with an XB-tree cursor and skips
//!   subtrees whose `maxR` proves they cannot participate; its
//!   effectiveness depends on the distribution of matches (§6.4.2),
//! * path solutions that never combine into twigs are real work
//!   ([`JoinStats::path_solutions`] vs [`JoinStats::matches`]).

use std::collections::HashMap;

use prix_core::query::TwigQuery;
use prix_prufer::EdgeKind;
use prix_storage::Result;
use prix_xml::{PostNum, Sym};

use crate::pos::Element;
use crate::stream::{StreamReader, StreamStore};
use crate::xbtree::{XbCursor, XbTree};

/// Which member of the family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Plain streams, holistic stacks (PathStack when the twig is a
    /// path — the code path is identical, per Bruno et al.).
    TwigStack,
    /// XB-tree cursors with skipping.
    TwigStackXB,
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Elements popped off the input cursors (leaf-level advances).
    pub elements_scanned: u64,
    /// Internal XB entries skipped without drilling.
    pub internal_skips: u64,
    /// XB drill-downs.
    pub drilldowns: u64,
    /// Root-to-leaf path solutions emitted by the stack phase.
    pub path_solutions: u64,
    /// Merged twig candidates before edge/order verification.
    pub merged_candidates: u64,
    /// Final twig matches (PRIX-ordered semantics).
    pub matches: u64,
}

/// One twig match: `assignment[q - 1]` = element image of query node
/// `q` (postorder numbering of the query).
pub type TwigAssignment = Vec<Element>;

/// Join output.
#[derive(Debug, Clone)]
pub struct TwigResult {
    /// Verified twig matches (deduplicated).
    pub matches: Vec<TwigAssignment>,
    /// Counters.
    pub stats: JoinStats,
}

/// Abstract input cursor: plain stream or XB-tree.
enum Input<'a> {
    Stream {
        reader: StreamReader<'a>,
        cur: Option<Element>,
    },
    Xb(XbCursor<'a>),
}

impl<'a> Input<'a> {
    fn eof(&self) -> bool {
        match self {
            Input::Stream { cur, .. } => cur.is_none(),
            Input::Xb(c) => c.eof(),
        }
    }

    fn left(&self) -> u64 {
        match self {
            Input::Stream { cur, .. } => cur.map_or(u64::MAX, |e| e.left),
            Input::Xb(c) => c.left(),
        }
    }

    fn right(&self) -> u64 {
        match self {
            Input::Stream { cur, .. } => cur.map_or(u64::MAX, |e| e.right),
            Input::Xb(c) => c.right(),
        }
    }

    fn is_exact(&self) -> bool {
        match self {
            Input::Stream { cur, .. } => cur.is_some(),
            Input::Xb(c) => c.is_exact(),
        }
    }

    fn element(&self) -> Element {
        match self {
            Input::Stream { cur, .. } => cur.expect("element() at eof"),
            Input::Xb(c) => c.element(),
        }
    }

    fn advance(&mut self) -> Result<()> {
        match self {
            Input::Stream { reader, cur } => {
                reader.advance()?;
                *cur = reader.head()?;
                Ok(())
            }
            Input::Xb(c) => c.advance(),
        }
    }

    fn drill_down(&mut self) -> Result<()> {
        match self {
            Input::Stream { .. } => Ok(()),
            Input::Xb(c) => c.drill_down(),
        }
    }
}

/// Query twig in join-friendly form (postorder-indexed arrays).
struct JoinQuery {
    m: usize,
    label: Vec<Sym>,
    parent: Vec<Option<usize>>, // 0-based node index
    children: Vec<Vec<usize>>,
    edge: Vec<EdgeKind>,
    /// Query nodes in root-to-leaf order per leaf (0-based).
    leaf_chains: Vec<Vec<usize>>,
    /// Preorder rank per node index.
    pre_rank: Vec<u32>,
    root: usize,
    absolute: bool,
}

impl JoinQuery {
    fn new(q: &TwigQuery) -> Self {
        let tree = q.tree();
        let m = tree.len();
        let mut label = vec![Sym(0); m];
        let mut parent = vec![None; m];
        let mut children = vec![Vec::new(); m];
        let edge = q.edges_by_post();
        for id in tree.nodes() {
            let idx = (tree.postorder(id) - 1) as usize;
            label[idx] = tree.label(id);
            if let Some(p) = tree.parent(id) {
                let pidx = (tree.postorder(p) - 1) as usize;
                parent[idx] = Some(pidx);
            }
        }
        // Children in document (postorder-ascending) order.
        for id in tree.nodes() {
            let idx = (tree.postorder(id) - 1) as usize;
            for &c in tree.children(id) {
                children[idx].push((tree.postorder(c) - 1) as usize);
            }
        }
        let root = m - 1; // root has the largest postorder
        let mut leaf_chains = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for i in 0..m {
            if children[i].is_empty() {
                let mut chain = vec![i];
                let mut cur = i;
                while let Some(p) = parent[cur] {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                leaf_chains.push(chain);
            }
        }
        // Preorder ranks.
        let mut pre_rank = vec![0u32; m];
        let mut stack = vec![tree.root()];
        let mut next = 0u32;
        while let Some(id) = stack.pop() {
            pre_rank[(tree.postorder(id) - 1) as usize] = next;
            next += 1;
            for &c in tree.children(id).iter().rev() {
                stack.push(c);
            }
        }
        JoinQuery {
            m,
            label,
            parent,
            children,
            edge,
            leaf_chains,
            pre_rank,
            root,
            absolute: q.is_absolute(),
        }
    }
}

/// A configured twig join over one [`StreamStore`].
pub struct TwigJoin<'a> {
    streams: &'a StreamStore,
    xb: Option<&'a HashMap<Sym, XbTree>>,
}

impl<'a> TwigJoin<'a> {
    /// A join reading plain streams (TwigStack / PathStack).
    pub fn new(streams: &'a StreamStore) -> Self {
        TwigJoin { streams, xb: None }
    }

    /// A join using XB-trees (TwigStackXB). Trees must exist for every
    /// tag the queries use; missing tags fall back to plain streams.
    pub fn with_xbtrees(streams: &'a StreamStore, xb: &'a HashMap<Sym, XbTree>) -> Self {
        TwigJoin {
            streams,
            xb: Some(xb),
        }
    }

    /// Runs the join.
    pub fn execute(&self, q: &TwigQuery, algorithm: Algorithm) -> Result<TwigResult> {
        let jq = JoinQuery::new(q);
        let mut stats = JoinStats::default();

        let mut inputs: Vec<Input<'a>> = Vec::with_capacity(jq.m);
        for i in 0..jq.m {
            let sym = jq.label[i];
            let input = match (algorithm, self.xb) {
                (Algorithm::TwigStackXB, Some(xb)) if xb.contains_key(&sym) => {
                    Input::Xb(xb[&sym].cursor()?)
                }
                _ => {
                    let mut reader = self.streams.reader(sym);
                    let cur = reader.head()?;
                    Input::Stream { reader, cur }
                }
            };
            inputs.push(input);
        }

        // stacks[i] = Vec<(element, parent-stack length at push time)>.
        let mut stacks: Vec<Vec<(Element, usize)>> = vec![Vec::new(); jq.m];
        // Path solutions per leaf chain, as element tuples in
        // root-to-leaf order.
        let mut solutions: Vec<Vec<Vec<Element>>> = vec![Vec::new(); jq.leaf_chains.len()];
        let leaf_of_chain: Vec<usize> = jq.leaf_chains.iter().map(|c| *c.last().unwrap()).collect();

        loop {
            let q_act = get_next(&jq, &mut inputs, jq.root, &mut stats)?;
            if inputs[q_act].eof() {
                break;
            }
            let act_l = inputs[q_act].left();
            let parent = jq.parent[q_act];
            if let Some(p) = parent {
                clean_stack(&mut stacks[p], act_l);
            }
            let push_ok = parent.is_none_or(|p| !stacks[p].is_empty());
            if !inputs[q_act].is_exact() {
                // Internal XB entry: skip it only when provably useless —
                // no current ancestor on the parent stack AND every
                // remaining parent element starts after the entry's
                // subtree ends (future parents have L ≥ the parent
                // cursor's L, so none can contain anything inside the
                // entry). Otherwise drill down for precision.
                let maybe_useful = match parent {
                    None => true,
                    Some(p) => !stacks[p].is_empty() || inputs[p].left() <= inputs[q_act].right(),
                };
                if maybe_useful {
                    stats.drilldowns += 1;
                    inputs[q_act].drill_down()?;
                } else {
                    stats.internal_skips += 1;
                    inputs[q_act].advance()?;
                }
                continue;
            }
            if push_ok {
                clean_stack(&mut stacks[q_act], act_l);
                let elem = inputs[q_act].element();
                let parent_len = parent.map_or(0, |p| stacks[p].len());
                stacks[q_act].push((elem, parent_len));
                if jq.children[q_act].is_empty() {
                    // Leaf: emit all path solutions ending at this
                    // element, then pop it.
                    let chain_idx = leaf_of_chain
                        .iter()
                        .position(|&l| l == q_act)
                        .expect("leaf has a chain");
                    emit_solutions(
                        &jq,
                        &stacks,
                        chain_idx,
                        &mut solutions[chain_idx],
                        &mut stats,
                    );
                    stacks[q_act].pop();
                }
                stats.elements_scanned += 1;
                inputs[q_act].advance()?;
            } else {
                stats.elements_scanned += 1;
                inputs[q_act].advance()?;
            }
        }

        // Merge post-processing: join path solutions into twig matches,
        // then verify parent-child / distance edges and PRIX-ordered
        // embedding order.
        let merged = merge_paths(&jq, &solutions, &mut stats);
        let mut matches: Vec<TwigAssignment> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
        for asg in merged {
            if !verify(&jq, &asg) {
                continue;
            }
            let key: Vec<u64> = asg.iter().map(|e| e.left).collect();
            if seen.insert(key) {
                matches.push(asg);
            }
        }
        matches.sort();
        stats.matches = matches.len() as u64;
        Ok(TwigResult { matches, stats })
    }
}

/// `getNext` (Bruno et al. Algorithm 1 core): returns a query node such
/// that either it has a descendant extension or one of its descendants
/// violates — advancing it is always safe.
fn get_next(
    jq: &JoinQuery,
    inputs: &mut [Input<'_>],
    q: usize,
    stats: &mut JoinStats,
) -> Result<usize> {
    if jq.children[q].is_empty() {
        return Ok(q);
    }
    let mut min_child = usize::MAX;
    let (mut min_l, mut max_l) = (u64::MAX, 0u64);
    for &c in &jq.children[q] {
        let r = get_next(jq, inputs, c, stats)?;
        // Early-return a violating descendant — but not an exhausted
        // one: an eof subtree contributes ∞ and must not silence its
        // siblings (their pending path solutions still merge with
        // already-stacked ancestors).
        if r != c && !inputs[r].eof() {
            return Ok(r);
        }
        let l = inputs[c].left();
        if min_child == usize::MAX || l < min_l {
            min_l = l;
            min_child = c;
        }
        max_l = max_l.max(l);
    }
    // Skip elements of q that end before the farthest child begins:
    // they cannot contain it. (On XB internal entries this skips whole
    // subtrees.)
    while inputs[q].right() < max_l {
        inputs[q].advance()?;
        stats.elements_scanned += u64::from(inputs[q].is_exact());
    }
    if inputs[q].left() < min_l {
        Ok(q)
    } else {
        Ok(min_child)
    }
}

/// Pops stack entries that end before `act_l` — they cannot be
/// ancestors of anything still to come.
fn clean_stack(stack: &mut Vec<(Element, usize)>, act_l: u64) {
    while let Some(&(top, _)) = stack.last() {
        if top.right < act_l {
            stack.pop();
        } else {
            return;
        }
    }
}

/// Emits every root-to-leaf path solution ending at the just-pushed
/// leaf element (stack-encoded enumeration).
fn emit_solutions(
    jq: &JoinQuery,
    stacks: &[Vec<(Element, usize)>],
    chain_idx: usize,
    out: &mut Vec<Vec<Element>>,
    stats: &mut JoinStats,
) {
    let chain = &jq.leaf_chains[chain_idx];
    // chain is root..leaf; expand from the leaf upward.
    let leaf = *chain.last().unwrap();
    let (leaf_elem, leaf_ptr) = *stacks[leaf].last().expect("leaf was just pushed");
    let mut current: Vec<(Vec<Element>, usize)> = vec![(vec![leaf_elem], leaf_ptr)];
    for depth in (0..chain.len() - 1).rev() {
        let node = chain[depth];
        let mut next: Vec<(Vec<Element>, usize)> = Vec::new();
        for (partial, limit) in current {
            #[allow(clippy::needless_range_loop)]
            for i in 0..limit {
                let (e, ptr) = stacks[node][i];
                let mut ext = partial.clone();
                ext.push(e);
                next.push((ext, ptr));
            }
        }
        current = next;
    }
    for (mut path, _) in current {
        path.reverse(); // root..leaf order
        stats.path_solutions += 1;
        out.push(path);
    }
}

/// Joins per-leaf path solutions on their shared query nodes.
fn merge_paths(
    jq: &JoinQuery,
    solutions: &[Vec<Vec<Element>>],
    stats: &mut JoinStats,
) -> Vec<TwigAssignment> {
    if jq.leaf_chains.is_empty() {
        return Vec::new();
    }
    // Start with the first chain's solutions as partial assignments.
    let mut assigned_nodes: Vec<usize> = jq.leaf_chains[0].clone();
    let mut partials: Vec<Vec<Element>> = solutions[0].to_vec();
    #[allow(clippy::needless_range_loop)]
    for chain_idx in 1..jq.leaf_chains.len() {
        let chain = &jq.leaf_chains[chain_idx];
        // Shared nodes between the accumulated assignment and this
        // chain (always a root-anchored prefix of the chain).
        let shared: Vec<usize> = chain
            .iter()
            .copied()
            .filter(|n| assigned_nodes.contains(n))
            .collect();
        let shared_pos_in_chain: Vec<usize> = shared
            .iter()
            .map(|n| chain.iter().position(|x| x == n).unwrap())
            .collect();
        let shared_pos_in_acc: Vec<usize> = shared
            .iter()
            .map(|n| assigned_nodes.iter().position(|x| x == n).unwrap())
            .collect();
        // Hash-join on the shared projection.
        let mut by_key: HashMap<Vec<u64>, Vec<&Vec<Element>>> = HashMap::new();
        for path in &solutions[chain_idx] {
            let key: Vec<u64> = shared_pos_in_chain.iter().map(|&i| path[i].left).collect();
            by_key.entry(key).or_default().push(path);
        }
        let new_nodes: Vec<usize> = chain
            .iter()
            .copied()
            .filter(|n| !assigned_nodes.contains(n))
            .collect();
        let new_pos_in_chain: Vec<usize> = new_nodes
            .iter()
            .map(|n| chain.iter().position(|x| x == n).unwrap())
            .collect();
        let mut next: Vec<Vec<Element>> = Vec::new();
        for acc in &partials {
            let key: Vec<u64> = shared_pos_in_acc.iter().map(|&i| acc[i].left).collect();
            if let Some(paths) = by_key.get(&key) {
                for path in paths {
                    let mut merged = acc.clone();
                    for &p in &new_pos_in_chain {
                        merged.push(path[p]);
                    }
                    next.push(merged);
                }
            }
        }
        assigned_nodes.extend(new_nodes);
        partials = next;
    }
    stats.merged_candidates = partials.len() as u64;
    // Reorder each assignment into query-postorder indexing.
    partials
        .into_iter()
        .map(|flat| {
            let mut asg = vec![flat[0]; jq.m];
            for (pos, &node) in assigned_nodes.iter().enumerate() {
                asg[node] = flat[pos];
            }
            asg
        })
        .collect()
}

/// Final verification: edge kinds (including the parent-child edges the
/// stack phase deliberately relaxed) and PRIX-ordered embedding
/// (preorder and postorder monotonicity).
fn verify(jq: &JoinQuery, asg: &TwigAssignment) -> bool {
    for i in 0..jq.m {
        if let Some(p) = jq.parent[i] {
            let (c, a) = (asg[i], asg[p]);
            let ok = match jq.edge[i] {
                EdgeKind::Child => a.is_parent_of(&c),
                EdgeKind::Descendant => a.contains(&c),
                EdgeKind::Exactly(k) => a.contains(&c) && a.level + k == c.level,
            };
            if !ok {
                return false;
            }
        }
    }
    if jq.absolute && asg[jq.root].level != 1 {
        return false;
    }
    // Ordered embedding: postorder via Right, preorder via Left.
    for i in 0..jq.m {
        for j in i + 1..jq.m {
            if asg[i].right >= asg[j].right {
                return false;
            }
            let qp = jq.pre_rank[i] < jq.pre_rank[j];
            let dp = asg[i].left < asg[j].left;
            if qp != dp {
                return false;
            }
        }
    }
    true
}

/// Convenience: counts matches for a query using the given algorithm.
pub fn count_matches(
    streams: &StreamStore,
    xb: Option<&HashMap<Sym, XbTree>>,
    q: &TwigQuery,
    algorithm: Algorithm,
) -> Result<u64> {
    let join = match xb {
        Some(x) => TwigJoin::with_xbtrees(streams, x),
        None => TwigJoin::new(streams),
    };
    Ok(join.execute(q, algorithm)?.stats.matches)
}

/// `PostNum`-style view of a match for cross-checking against PRIX: the
/// postorder number of each image within its document (derived from the
/// per-document Right order).
pub fn assignment_postorders(asg: &TwigAssignment, doc_rights_sorted: &[u64]) -> Vec<PostNum> {
    asg.iter()
        .map(|e| {
            (doc_rights_sorted
                .binary_search(&e.right)
                .expect("element right must exist") as PostNum)
                + 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_core::xpath::parse_xpath;
    use prix_storage::{BufferPool, Pager};
    use prix_xml::{Collection, SymbolTable};
    use std::sync::Arc;

    use crate::pos::encode_collection;

    struct Fixture {
        collection: Collection,
        pool: Arc<BufferPool>,
        streams: StreamStore,
        xb: HashMap<Sym, XbTree>,
    }

    fn fixture(xmls: &[&str]) -> Fixture {
        let mut collection = Collection::new();
        for x in xmls {
            collection.add_xml(x).unwrap();
        }
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 512));
        let raw = encode_collection(&collection);
        let streams = StreamStore::build(Arc::clone(&pool), &raw).unwrap();
        let mut xb = HashMap::new();
        for (&sym, elems) in &raw {
            xb.insert(sym, XbTree::build(Arc::clone(&pool), elems).unwrap());
        }
        Fixture {
            collection,
            pool,
            streams,
            xb,
        }
    }

    fn run(f: &Fixture, xpath: &str, alg: Algorithm) -> TwigResult {
        let mut syms: SymbolTable = f.collection.symbols().clone();
        let q = parse_xpath(xpath, &mut syms).unwrap();
        let join = TwigJoin::with_xbtrees(&f.streams, &f.xb);
        join.execute(&q, alg).unwrap()
    }

    #[test]
    fn simple_path_query() {
        let f = fixture(&["<a><b><c/></b></a>", "<a><x><c/></x></a>"]);
        for alg in [Algorithm::TwigStack, Algorithm::TwigStackXB] {
            let r = run(&f, "//a/b/c", alg);
            assert_eq!(r.stats.matches, 1, "{alg:?}");
        }
    }

    #[test]
    fn descendant_edges() {
        let f = fixture(&["<a><m><b/></m></a>", "<a><b/></a>"]);
        let r = run(&f, "//a//b", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 2);
        let r = run(&f, "//a/b", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 1, "child edge enforced at merge");
    }

    #[test]
    fn twig_with_branches() {
        let f = fixture(&[
            "<P><Q><x/></Q><R><y/></R></P>",
            "<root><P><Q><x/></Q></P><P><R><y/></R></P></root>",
        ]);
        for alg in [Algorithm::TwigStack, Algorithm::TwigStackXB] {
            let r = run(&f, "//P[./Q]/R", alg);
            assert_eq!(r.stats.matches, 1, "{alg:?}");
        }
    }

    #[test]
    fn suboptimality_produces_wasted_path_solutions() {
        // NP is an ancestor but not the parent of RBR_OR_JJR and PP:
        // the stack phase emits path solutions that merge+verify later
        // discards (the paper's Q8 scenario).
        let f = fixture(&[
            "<S><NP><ADJP><RBR_OR_JJR><t/></RBR_OR_JJR></ADJP><VPX><PP><u/></PP></VPX></NP></S>",
        ]);
        let r = run(&f, "//NP[./RBR_OR_JJR]/PP", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 0);
        assert!(
            r.stats.path_solutions >= 2,
            "the near-miss produced path solutions ({})",
            r.stats.path_solutions
        );
    }

    #[test]
    fn star_distance_edges() {
        let f = fixture(&[
            "<a><m><b/></m></a>",
            "<a><b/></a>",
            "<a><m><n><b/></n></m></a>",
        ]);
        let r = run(&f, "//a/*/b", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 1);
    }

    #[test]
    fn ordered_semantics_matches_prix() {
        // R before Q in the document: the ordered query Q-then-R must
        // not match.
        let f = fixture(&["<P><R/><Q/></P>"]);
        let r = run(&f, "//P[./Q]/R", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 0);
        let r = run(&f, "//P[./R]/Q", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 1);
    }

    #[test]
    fn multiple_embeddings_counted() {
        let f = fixture(&["<a><b><c/></b><b><c/></b></a>"]);
        let r = run(&f, "//a/b/c", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 2);
    }

    #[test]
    fn xb_skips_reduce_io_on_scattered_matches() {
        // One matching document surrounded by many non-matching ones.
        let mut xmls: Vec<String> = Vec::new();
        for i in 0..4000 {
            if i == 2000 {
                xmls.push("<www><editor><e/></editor><url><u/></url></www>".into());
            } else {
                xmls.push(format!(
                    "<article><author><a{}/></author><url><u/></url></article>",
                    i % 7
                ));
            }
        }
        let refs: Vec<&str> = xmls.iter().map(|s| s.as_str()).collect();
        let f = fixture(&refs);

        let mut syms: SymbolTable = f.collection.symbols().clone();
        let q = parse_xpath("//www[./editor]/url", &mut syms).unwrap();

        f.pool.clear().unwrap();
        let before = f.pool.snapshot();
        let join = TwigJoin::new(&f.streams);
        let plain = join.execute(&q, Algorithm::TwigStack).unwrap();
        let plain_io = f.pool.snapshot().since(&before);

        f.pool.clear().unwrap();
        let before = f.pool.snapshot();
        let join = TwigJoin::with_xbtrees(&f.streams, &f.xb);
        let xb = join.execute(&q, Algorithm::TwigStackXB).unwrap();
        let xb_io = f.pool.snapshot().since(&before);

        assert_eq!(plain.stats.matches, 1);
        assert_eq!(xb.stats.matches, 1);
        assert!(
            xb_io.physical_reads < plain_io.physical_reads,
            "XB skipping must read fewer pages at this scale \
             ({xb_io:?} vs {plain_io:?})"
        );
    }

    #[test]
    fn absolute_queries() {
        let f = fixture(&["<a><b/></a>", "<r><a><b/></a></r>"]);
        let r = run(&f, "/a/b", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 1);
        let r = run(&f, "//a/b", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 2);
    }

    #[test]
    fn empty_stream_short_circuits() {
        let f = fixture(&["<a><b/></a>"]);
        let r = run(&f, "//a/zzz", Algorithm::TwigStack);
        assert_eq!(r.stats.matches, 0);
        assert_eq!(r.stats.path_solutions, 0);
    }
}
