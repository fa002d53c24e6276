//! Engine routing: §5.6's rule, and the contract every engine shares.
//!
//! The paper's §5.6 chooses the index on one fact: a twig with values
//! runs on the EPIndex, any other twig on the RPIndex ("if twig queries
//! have no values, then indexing Regular-Prüfer sequences is
//! recommended"). [`EngineSnapshot::query_opts`] applies that rule, with
//! MaxGap as [`ExecOpts::use_maxgap`] says, and it is how the server and
//! the CLI answer every query. The paper's other engines (§6: ViST,
//! TwigStack, TwigStackXB) are baselines: they sit behind the
//! [`QueryEngine`] trait, and [`EngineSnapshot::query_routed`] runs one
//! through an [`AltProvider`] when its caller names it. That is the
//! library's comparison API (the agreement tests and the benchmark use
//! it); no serving surface names an engine.
//!
//! ## Result compatibility
//!
//! A named engine's results must be comparable with PRIX's:
//!
//! 1. every routed outcome is canonicalized — matches sorted by
//!    `(doc, embedding)` — so engines with different enumeration
//!    orders produce identical payloads,
//! 2. the answers are identical only when PRIX's embedding semantics
//!    are exact for the query ([`prix_embedding_exact`]): for `//`
//!    edges meeting at a branching node, PRIX's frequency-consistency
//!    rule (Definition 4) pins the branch image to one common ancestor
//!    and deliberately enumerates fewer embeddings than a per-ancestor
//!    oracle.
//!
//! [`EngineSnapshot::query_opts`]: crate::EngineSnapshot::query_opts
//! [`EngineSnapshot::query_routed`]: crate::EngineSnapshot::query_routed
//! [`ExecOpts::use_maxgap`]: crate::ExecOpts::use_maxgap

use std::sync::Arc;

use prix_prufer::EdgeKind;

use crate::index::{ExecOpts, IndexError, IndexKind, Result};
use crate::query::TwigQuery;
use crate::snapshot::QueryOutcome;

/// Every engine a query can run on. `PrixRp`/`PrixEp` distinguish the
/// paper's two index flavors (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineId {
    /// PRIX over the Regular-Prüfer (structure-only) index.
    PrixRp,
    /// PRIX over the Extended-Prüfer (value-carrying) index.
    PrixEp,
    /// ViST structure-encoded sequence matching + verification.
    Vist,
    /// Holistic twig join over region-encoded streams.
    TwigStack,
    /// TwigStack with XB-tree skipping.
    TwigStackXb,
}

impl EngineId {
    /// All engines, in stable exposition order (metrics).
    pub const ALL: [EngineId; 5] = [
        EngineId::PrixRp,
        EngineId::PrixEp,
        EngineId::Vist,
        EngineId::TwigStack,
        EngineId::TwigStackXb,
    ];

    /// The label used in metrics and explain output.
    pub fn label(self) -> &'static str {
        match self {
            EngineId::PrixRp => "prix_rp",
            EngineId::PrixEp => "prix_ep",
            EngineId::Vist => "vist",
            EngineId::TwigStack => "twigstack",
            EngineId::TwigStackXb => "twigstackxb",
        }
    }

    /// Stable index into per-engine arrays (metrics).
    pub fn index(self) -> usize {
        EngineId::ALL.iter().position(|e| *e == self).unwrap()
    }

    /// The PRIX engine id for a concrete index kind.
    pub fn from_kind(kind: IndexKind) -> EngineId {
        match kind {
            IndexKind::Regular => EngineId::PrixRp,
            IndexKind::Extended => EngineId::PrixEp,
        }
    }
}

/// One alternative engine. Implementations adapt ViST and TwigStack
/// (which live in their own crates, downstream of this one) to the
/// shared execution contract: same query type, same options, same
/// outcome — so their results are directly comparable with PRIX's.
pub trait QueryEngine: Send + Sync {
    /// Which engine this is.
    fn id(&self) -> EngineId;
    /// Can this engine answer `q` at all?
    fn supports(&self, q: &TwigQuery) -> bool;
    /// Runs the query. Implementations fill [`QueryOutcome::engine`]
    /// with their own id and report whatever counters map onto
    /// [`crate::index::QueryStats`].
    fn execute(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome>;
}

/// Supplies (usually lazily-built) alternative engines to
/// [`EngineSnapshot::query_routed`](crate::EngineSnapshot::query_routed).
/// Building a ViST or TwigStack substrate over a large collection is
/// expensive, so providers construct them on first use and cache.
pub trait AltProvider: Sync {
    /// Returns the adapter for `id`, building it if necessary.
    /// `id` is never `PrixRp`/`PrixEp`.
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>>;
}

/// An [`AltProvider`] with no alternative engines (PRIX only).
pub struct NoAlts;

impl AltProvider for NoAlts {
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>> {
        Err(IndexError::Unsupported(format!(
            "engine {} is not available here",
            id.label()
        )))
    }
}

/// Is PRIX's embedding enumeration exact (identical to the naive
/// per-ancestor oracle) for this query? False when a `//` edge hangs
/// off a branching query node — there PRIX's frequency-consistency
/// rule pins the branch image and enumerates fewer embeddings, so a
/// non-PRIX engine would return a (correct but) larger match set.
pub fn prix_embedding_exact(q: &TwigQuery) -> bool {
    let tree = q.tree();
    let edges = q.edges_by_post();
    for id in tree.nodes() {
        let kids = tree.children(id);
        if kids.len() < 2 {
            continue;
        }
        for &c in kids {
            let idx = (tree.postorder(c) - 1) as usize;
            if matches!(edges[idx], EdgeKind::Descendant) {
                return false;
            }
        }
    }
    true
}

/// A routed execution: the outcome, its matches in canonical
/// `(doc, embedding)` order. [`QueryOutcome::engine`] names the engine
/// that ran.
#[derive(Debug)]
pub struct Routed {
    /// The canonicalized outcome.
    pub outcome: QueryOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;
    use prix_xml::SymbolTable;

    fn q(x: &str) -> TwigQuery {
        let mut syms = SymbolTable::new();
        parse_xpath(x, &mut syms).unwrap()
    }

    #[test]
    fn embedding_exactness_gate() {
        // Pure paths are exact even with // edges.
        assert!(prix_embedding_exact(&q("//a//b")));
        assert!(prix_embedding_exact(&q("/a/b/c")));
        // A branch with only / edges is exact.
        assert!(prix_embedding_exact(&q("//a[./b]/c")));
        // A // edge at a branching node is not.
        assert!(!prix_embedding_exact(&q("//a[.//b]/c")));
    }
}
