//! PathStack (Bruno et al., SIGMOD 2002, Algorithm 1).
//!
//! The linear-path special case of the holistic stack join: no
//! `getNext` recursion — the main loop repeatedly takes the query node
//! whose stream head has the smallest `Left`, cleans every stack, and
//! pushes the element with a pointer to its parent stack's top. Leaf
//! pushes emit root-to-leaf solutions directly; there is no merge phase
//! because a path has a single leaf. The paper cites PathStack (with
//! TwigStack) as "optimal for processing path ... queries" (§1).

use prix_core::query::TwigQuery;
use prix_prufer::EdgeKind;
use prix_storage::Result;

use crate::join::{JoinStats, TwigAssignment, TwigResult};
use crate::pos::Element;
use crate::stream::StreamStore;

/// Error marker: the query is not a linear path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotAPath;

impl std::fmt::Display for NotAPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PathStack requires a linear path query")
    }
}

impl std::error::Error for NotAPath {}

/// Runs PathStack over `streams`. The query must be a path (every node
/// has at most one child); postorder numbering makes node `i`'s parent
/// node `i + 1`.
pub fn path_stack(
    streams: &StreamStore,
    q: &TwigQuery,
) -> std::result::Result<Result<TwigResult>, NotAPath> {
    let tree = q.tree();
    if tree.nodes().any(|n| tree.children(n).len() > 1) {
        return Err(NotAPath);
    }
    Ok(run(streams, q))
}

fn run(streams: &StreamStore, q: &TwigQuery) -> Result<TwigResult> {
    let tree = q.tree();
    let m = tree.len();
    let edges = q.edges_by_post();
    let mut stats = JoinStats::default();

    // Node i (0-based, = postorder - 1) has parent i + 1; leaf is 0.
    let mut cursors = Vec::with_capacity(m);
    for i in 0..m {
        let label = tree.label_at((i + 1) as u32);
        let mut reader = streams.reader(label);
        let cur = reader.head()?;
        cursors.push((reader, cur));
    }
    // stacks[i] = (element, parent stack length at push).
    let mut stacks: Vec<Vec<(Element, usize)>> = vec![Vec::new(); m];
    let mut matches: Vec<TwigAssignment> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();

    loop {
        // qmin = node whose head has minimal Left.
        let mut qmin = None;
        let mut min_l = u64::MAX;
        for (i, (_, cur)) in cursors.iter().enumerate() {
            if let Some(e) = cur {
                if e.left < min_l {
                    min_l = e.left;
                    qmin = Some(i);
                }
            }
        }
        let Some(qmin) = qmin else { break };
        let elem = cursors[qmin].1.expect("qmin has a head");

        // Clean every stack: entries ending before min_l are dead.
        for s in &mut stacks {
            while s.last().is_some_and(|(e, _)| e.right < min_l) {
                s.pop();
            }
        }

        let parent_len = if qmin + 1 < m {
            stacks[qmin + 1].len()
        } else {
            0
        };
        stacks[qmin].push((elem, parent_len));
        if qmin == 0 {
            // Leaf: expand all root-to-leaf combinations.
            expand(&stacks, m, &mut stats, &mut |assignment| {
                if verify_path(&edges, assignment, q.is_absolute()) {
                    let key: Vec<u64> = assignment.iter().map(|e| e.left).collect();
                    if seen.insert(key) {
                        matches.push(assignment.to_vec());
                    }
                }
            });
            stacks[0].pop();
        }
        stats.elements_scanned += 1;
        let (reader, cur) = &mut cursors[qmin];
        reader.advance()?;
        *cur = reader.head()?;
    }

    matches.sort();
    stats.matches = matches.len() as u64;
    Ok(TwigResult { matches, stats })
}

/// Enumerates ancestor combinations for the just-pushed leaf.
fn expand(
    stacks: &[Vec<(Element, usize)>],
    m: usize,
    stats: &mut JoinStats,
    emit: &mut impl FnMut(&[Element]),
) {
    let (leaf, leaf_ptr) = *stacks[0].last().expect("leaf just pushed");
    // partial[i] holds the chosen elements for nodes 0..=i plus the
    // pointer bound for node i + 1.
    let mut assignment = vec![leaf; m];
    rec(stacks, 1, leaf_ptr, m, &mut assignment, stats, emit);

    #[allow(clippy::too_many_arguments)]
    fn rec(
        stacks: &[Vec<(Element, usize)>],
        level: usize,
        limit: usize,
        m: usize,
        assignment: &mut Vec<Element>,
        stats: &mut JoinStats,
        emit: &mut impl FnMut(&[Element]),
    ) {
        if level == m {
            stats.path_solutions += 1;
            emit(assignment);
            return;
        }
        for i in 0..limit {
            let (e, ptr) = stacks[level][i];
            assignment[level] = e;
            rec(stacks, level + 1, ptr, m, assignment, stats, emit);
        }
    }
}

/// Edge kinds + PRIX-ordered semantics for a path (containment chains
/// imply the order automatically, but absolute roots and exact
/// distances still need checking).
fn verify_path(edges: &[EdgeKind], asg: &[Element], absolute: bool) -> bool {
    for i in 0..asg.len() - 1 {
        let (child, parent) = (asg[i], asg[i + 1]);
        let ok = match edges[i] {
            EdgeKind::Child => parent.is_parent_of(&child),
            EdgeKind::Descendant => parent.contains(&child),
            EdgeKind::Exactly(k) => parent.contains(&child) && parent.level + k == child.level,
        };
        if !ok {
            return false;
        }
    }
    !absolute || asg[asg.len() - 1].level == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{Algorithm, TwigJoin};
    use crate::pos::encode_collection;
    use prix_core::xpath::parse_xpath;
    use prix_storage::{BufferPool, Pager};
    use prix_xml::{Collection, SymbolTable};
    use std::sync::Arc;

    fn setup(xmls: &[&str]) -> (Collection, StreamStore) {
        let mut c = Collection::new();
        for x in xmls {
            c.add_xml(x).unwrap();
        }
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 256));
        let raw = encode_collection(&c);
        let streams = StreamStore::build(pool, &raw).unwrap();
        (c, streams)
    }

    #[test]
    fn rejects_twigs() {
        let (c, streams) = setup(&["<a><b/><c/></a>"]);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//a[./b]/c", &mut syms).unwrap();
        assert_eq!(path_stack(&streams, &q).unwrap_err(), NotAPath);
    }

    #[test]
    fn matches_simple_paths() {
        let (c, streams) = setup(&[
            "<a><b><c/></b></a>",
            "<a><x><c/></x></a>",
            "<a><b><x><c/></x></b></a>",
        ]);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//a/b/c", &mut syms).unwrap();
        let r = path_stack(&streams, &q).unwrap().unwrap();
        assert_eq!(r.stats.matches, 1);
        let q2 = parse_xpath("//a//c", &mut syms).unwrap();
        let r2 = path_stack(&streams, &q2).unwrap().unwrap();
        assert_eq!(r2.stats.matches, 3);
    }

    #[test]
    fn agrees_with_twigstack_on_paths() {
        let (c, streams) = setup(&[
            "<S><NP><NP><SYM><t/></SYM></NP></NP></S>",
            "<S><VP><NP><SYM><t/></SYM></NP></VP></S>",
            "<S><NP><t/></NP></S>",
        ]);
        let mut syms: SymbolTable = c.symbols().clone();
        for xpath in ["//S//NP/SYM", "//S/NP", "//NP//t", "//S//NP//SYM//t"] {
            let q = parse_xpath(xpath, &mut syms).unwrap();
            let ps = path_stack(&streams, &q).unwrap().unwrap();
            let ts = TwigJoin::new(&streams)
                .execute(&q, Algorithm::TwigStack)
                .unwrap();
            assert_eq!(ps.stats.matches, ts.stats.matches, "{xpath}");
            assert_eq!(ps.matches, ts.matches, "{xpath} assignments");
        }
    }

    #[test]
    fn nested_self_labels_enumerate_all_chains() {
        let (c, streams) = setup(&["<a><a><a><b/></a></a></a>"]);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("//a//a//b", &mut syms).unwrap();
        let r = path_stack(&streams, &q).unwrap().unwrap();
        // Pairs of distinct nested a's above b: C(3,2) = 3.
        assert_eq!(r.stats.matches, 3);
    }

    #[test]
    fn absolute_paths() {
        let (c, streams) = setup(&["<a><b/></a>", "<r><a><b/></a></r>"]);
        let mut syms: SymbolTable = c.symbols().clone();
        let q = parse_xpath("/a/b", &mut syms).unwrap();
        let r = path_stack(&streams, &q).unwrap().unwrap();
        assert_eq!(r.stats.matches, 1);
    }
}
