//! The PRIX system (paper §3, §5): indexing XML document collections by
//! Prüfer sequences and answering twig queries by subsequence matching
//! plus refinement.
//!
//! The pipeline mirrors Figure 3 of the paper:
//!
//! ```text
//!  indexing                       query processing
//!  ────────                       ────────────────
//!  XML docs ──► Prüfer seqs       twig ──► Prüfer seq
//!       │             │             │
//!       ▼             ▼             ▼
//!  NPS + leaf     virtual trie    filtering by subsequence matching
//!  records        (B⁺-trees)      (Algorithm 1 + MaxGap pruning)
//!                                   │
//!                                   ▼
//!                                 refinement: connectedness,
//!                                 gap/frequency consistency, leaves
//!                                 (Algorithm 2)
//! ```
//!
//! Main types:
//!
//! * [`TwigQuery`] / [`parse_xpath`] — query twigs with `/`, `//`, `*`
//!   edges and equality value predicates,
//! * [`PrixIndex`] — a disk-resident index (RPIndex or EPIndex, §5.6)
//!   over one collection,
//! * [`PrixEngine`] — owns both indexes and everything that changes
//!   them: build, reopen, insert, ingest, commit, compact, verify,
//! * [`EngineSnapshot`] — an epoch-pinned view of an engine and the one
//!   place queries run; routes each to the right index like the paper's
//!   query optimizer (§5.6). [`PrixEngine::snapshot`] hands one out for
//!   a bare engine, [`SharedEngine`] publishes one per ingest,
//! * [`naive`] — a direct tree-matching oracle used to validate every
//!   engine (no false alarms, no false dismissals),
//! * [`scan`] — an index-free in-memory matcher built from the same
//!   filtering + refinement phases.

pub mod arrange;
pub mod engine;
pub mod exec;
pub mod index;
pub mod naive;
pub mod plan;
pub mod query;
pub mod scan;
pub mod segbuild;
pub mod snapshot;
pub mod trie;
pub mod valix;
pub mod xpath;

pub use engine::{EngineConfig, IngestOutcome, PrixEngine, SegTier, TierCheck};
pub use exec::MatchStream;
pub use index::{ExecOpts, IndexKind, PrixIndex, QueryStats, TwigMatch};
pub use plan::{
    canonicalize, prix_embedding_exact, AltProvider, EngineChoice, EngineId, NoAlts, PlanReport,
    Planner, PlannerStats, QueryEngine, QueryShape, Routed, Router,
};
pub use prix_storage::{
    ManifestSegment, SegmentCheck, ValueRunReader, VxCheck, CHECKPOINT_LOG_BYTES, SEG_KIND_EP,
    SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX, SEG_VERSION, SYM_VERSION, VX_VERSION,
};
pub use query::{PredOp, PredValue, TwigBuilder, TwigQuery, ValuePred};
pub use segbuild::{BulkBuilder, DEFAULT_RUN_MEM_BYTES};
pub use snapshot::{EngineSnapshot, IngestReport, QueryOutcome, SharedEngine};
pub use trie::{LabelingMode, VirtualTrie};
pub use valix::{PredEval, ProbeStats, Valix};
pub use xpath::{parse_xpath, XPathError};
