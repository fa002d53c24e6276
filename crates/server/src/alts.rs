//! Lazily-built alternative engines (ViST, TwigStack, TwigStackXB)
//! for callers that compare them with PRIX through
//! [`EngineSnapshot::query_routed`], cached per snapshot epoch. The
//! server itself never runs them.
//!
//! The alternative engines read the *same data* as PRIX: the
//! collection is reconstructed out of the RP index (Prüfer-sequence
//! inversion), region-/structure-encoded, and indexed into in-memory
//! buffer pools. That build is expensive, so one [`AltCache`] keeps
//! the substrates of the most recent epoch it was asked for; a snapshot
//! of a newer epoch makes the cached entry unreachable and the next
//! alternative query rebuilds against it.

use std::sync::{Arc, Mutex};

use prix_core::index::{IndexError, Result};
use prix_core::plan::{AltProvider, EngineId, QueryEngine};
use prix_core::EngineSnapshot;
use prix_storage::{BufferPool, Pager};
use prix_twigstack::{Substrate, TwigStackEngine};
use prix_vist::VistEngine;

/// The per-epoch substrates, built once and shared by every request at
/// that epoch.
struct Built {
    epoch: u64,
    vist: Arc<dyn QueryEngine>,
    twigstack: Arc<dyn QueryEngine>,
    twigstack_xb: Arc<dyn QueryEngine>,
}

/// Epoch-keyed cache of alternative engines.
#[derive(Default)]
pub struct AltCache {
    inner: Mutex<Option<Arc<Built>>>,
}

impl AltCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn built_for(&self, snap: &EngineSnapshot) -> Result<Arc<Built>> {
        let epoch = snap.epoch();
        {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(b) = inner.as_ref() {
                if b.epoch == epoch {
                    return Ok(Arc::clone(b));
                }
            }
        }
        // Build outside the lock: reconstruction + indexing can take a
        // while and concurrent queries at the same epoch losing the
        // race just produce an identical substrate.
        let collection = Arc::new(snap.reconstruct_collection()?);
        let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 4096));
        let vist =
            VistEngine::build(vist_pool, Arc::clone(&collection)).map_err(IndexError::Storage)?;
        let ts_pool = Arc::new(BufferPool::new(Pager::in_memory(), 4096));
        let sub = Arc::new(Substrate::build(ts_pool, &collection).map_err(IndexError::Storage)?);
        let built = Arc::new(Built {
            epoch,
            vist: Arc::new(vist),
            twigstack: Arc::new(TwigStackEngine::twigstack(Arc::clone(&sub))),
            twigstack_xb: Arc::new(TwigStackEngine::twigstack_xb(sub)),
        });
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner = Some(Arc::clone(&built));
        Ok(built)
    }
}

/// [`AltProvider`] view of the cache for one request's snapshot.
pub struct SnapshotAlts<'a> {
    /// The epoch-pinned snapshot the request executes against.
    pub snap: &'a EngineSnapshot,
    /// The cache the substrates are kept in.
    pub cache: &'a AltCache,
}

impl AltProvider for SnapshotAlts<'_> {
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>> {
        let built = self.cache.built_for(self.snap)?;
        Ok(match id {
            EngineId::Vist => Arc::clone(&built.vist),
            EngineId::TwigStack => Arc::clone(&built.twigstack),
            EngineId::TwigStackXb => Arc::clone(&built.twigstack_xb),
            EngineId::PrixRp | EngineId::PrixEp => {
                return Err(IndexError::Unsupported(
                    "PRIX runs on its own indexes, not through the alt provider".into(),
                ))
            }
        })
    }
}
