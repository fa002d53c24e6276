//! [`VistEngine`]: the [`prix_core::plan::QueryEngine`] adapter that
//! runs twig queries on ViST when a caller of `query_routed` names it
//! (routing never picks it). Wraps a [`VistIndex`]
//! built over the shared collection and maps its outcome onto the
//! common [`QueryOutcome`] shape (canonically sorted matches, PRIX
//! counter names).

use std::sync::Arc;
use std::time::Instant;

use prix_core::naive::naive_ordered;
use prix_core::plan::{EngineId, QueryEngine};
use prix_core::query::TwigQuery;
use prix_core::{ExecOpts, IndexKind, QueryOutcome, QueryStats, TwigMatch};
use prix_storage::{BufferPool, IoScope};
use prix_xml::Collection;

use crate::index::VistIndex;
use crate::Result;

/// A ViST engine over one (immutable) collection.
pub struct VistEngine {
    index: VistIndex,
    collection: Arc<Collection>,
}

impl VistEngine {
    /// Wraps an already-built index. `collection` must be the one the
    /// index was built over.
    pub fn new(index: VistIndex, collection: Arc<Collection>) -> Self {
        VistEngine { index, collection }
    }

    /// Builds the ViST index over `collection` and wraps it.
    pub fn build(pool: Arc<BufferPool>, collection: Arc<Collection>) -> Result<Self> {
        let index = VistIndex::build(pool, &collection)?;
        Ok(VistEngine { index, collection })
    }

    /// The wrapped index.
    pub fn index(&self) -> &VistIndex {
        &self.index
    }
}

impl QueryEngine for VistEngine {
    fn id(&self) -> EngineId {
        EngineId::Vist
    }

    fn supports(&self, _q: &TwigQuery) -> bool {
        true
    }

    fn execute(&self, q: &TwigQuery, opts: &ExecOpts) -> prix_core::index::Result<QueryOutcome> {
        let scope = IoScope::begin();
        let start = Instant::now();
        let out = self.index.execute(q, &self.collection)?;
        // The ViST verification pass only counts occurrences; project
        // the actual embeddings (same representation as PRIX: postorder
        // numbers indexed by query postorder).
        let mut matches: Vec<TwigMatch> = Vec::new();
        for &doc in &out.verified_docs {
            for embedding in naive_ordered(self.collection.doc(doc), q) {
                matches.push(TwigMatch { doc, embedding });
            }
        }
        matches.sort_unstable_by(|a, b| (a.doc, &a.embedding).cmp(&(b.doc, &b.embedding)));
        matches.dedup();
        let mut truncated = false;
        if let Some(k) = opts.limit {
            if matches.len() > k {
                matches.truncate(k);
                truncated = true;
            }
        }
        let stats = QueryStats {
            range_queries: out.stats.range_queries,
            nodes_scanned: out.stats.nodes_scanned,
            candidates: out.stats.candidates,
            refined: out.verified_docs.len() as u64,
            matches: matches.len() as u64,
            ..QueryStats::default()
        };
        Ok(QueryOutcome {
            matches,
            stats,
            index_used: IndexKind::Regular,
            io: scope.end(),
            elapsed: start.elapsed(),
            truncated,
            engine: EngineId::Vist,
        })
    }
}
