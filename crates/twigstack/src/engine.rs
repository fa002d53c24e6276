//! [`prix_core::plan::QueryEngine`] adapters for the TwigStack family,
//! run when a caller of `query_routed` names `twigstack` or
//! `twigstackxb`. A [`Substrate`] (per-tag streams + XB-trees +
//! per-document postorder maps) is built once over the shared
//! collection; [`TwigStackEngine`] then answers queries with either
//! algorithm, translating region-encoded assignments back into PRIX's
//! `(doc, postorder embedding)` match representation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use prix_core::plan::{EngineId, QueryEngine};
use prix_core::query::TwigQuery;
use prix_core::{ExecOpts, IndexKind, QueryOutcome, QueryStats, TwigMatch};
use prix_storage::{BufferPool, IoScope, StorageError};
use prix_xml::{Collection, DocId, Sym};

use crate::join::{assignment_postorders, Algorithm, TwigJoin};
use crate::pos::encode_collection;
use crate::stream::{by_tag, StreamStore};
use crate::xbtree::XbTree;

/// The shared per-collection substrate both algorithms read:
/// region-encoded streams, XB-trees, and the sorted `Right` values of
/// every document (the map from region encoding back to postorder
/// numbers).
pub struct Substrate {
    streams: StreamStore,
    xb: HashMap<Sym, XbTree>,
    doc_rights: HashMap<DocId, Vec<u64>>,
}

impl Substrate {
    /// Region-encodes `collection` and builds streams + XB-trees in
    /// `pool`, both in ascending tag order, so one collection gets the
    /// same pages on every run.
    pub fn build(
        pool: Arc<BufferPool>,
        collection: &Collection,
    ) -> Result<Substrate, StorageError> {
        let raw = encode_collection(collection);
        let streams = StreamStore::build(Arc::clone(&pool), &raw)?;
        let mut xb = HashMap::new();
        let mut doc_rights: HashMap<DocId, Vec<u64>> = HashMap::new();
        for (sym, elems) in by_tag(&raw) {
            xb.insert(sym, XbTree::build(Arc::clone(&pool), elems)?);
            for e in elems {
                doc_rights.entry(e.doc).or_default().push(e.right);
            }
        }
        for rights in doc_rights.values_mut() {
            rights.sort_unstable();
        }
        Ok(Substrate {
            streams,
            xb,
            doc_rights,
        })
    }

    /// The element streams.
    pub fn streams(&self) -> &StreamStore {
        &self.streams
    }

    /// The per-tag XB-trees.
    pub fn xbtrees(&self) -> &HashMap<Sym, XbTree> {
        &self.xb
    }
}

/// One algorithm of the family bound to a substrate.
pub struct TwigStackEngine {
    sub: Arc<Substrate>,
    alg: Algorithm,
}

impl TwigStackEngine {
    /// A TwigStack (plain streams) engine.
    pub fn twigstack(sub: Arc<Substrate>) -> Self {
        TwigStackEngine {
            sub,
            alg: Algorithm::TwigStack,
        }
    }

    /// A TwigStackXB (XB-tree skipping) engine.
    pub fn twigstack_xb(sub: Arc<Substrate>) -> Self {
        TwigStackEngine {
            sub,
            alg: Algorithm::TwigStackXB,
        }
    }
}

impl QueryEngine for TwigStackEngine {
    fn id(&self) -> EngineId {
        match self.alg {
            Algorithm::TwigStack => EngineId::TwigStack,
            Algorithm::TwigStackXB => EngineId::TwigStackXb,
        }
    }

    fn supports(&self, _q: &TwigQuery) -> bool {
        true
    }

    fn execute(&self, q: &TwigQuery, opts: &ExecOpts) -> prix_core::index::Result<QueryOutcome> {
        let scope = IoScope::begin();
        let start = Instant::now();
        let join = match self.alg {
            Algorithm::TwigStack => TwigJoin::new(&self.sub.streams),
            Algorithm::TwigStackXB => TwigJoin::with_xbtrees(&self.sub.streams, &self.sub.xb),
        };
        let result = join.execute(q, self.alg)?;
        let mut matches: Vec<TwigMatch> = Vec::with_capacity(result.matches.len());
        for asg in &result.matches {
            let doc = asg[0].doc;
            let rights = &self.sub.doc_rights[&doc];
            matches.push(TwigMatch {
                doc,
                embedding: assignment_postorders(asg, rights),
            });
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
            range_queries: result.stats.drilldowns,
            nodes_scanned: result.stats.elements_scanned,
            candidates: result.stats.merged_candidates,
            refined: result.stats.matches,
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
            engine: self.id(),
        })
    }
}
