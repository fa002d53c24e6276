//! Prüfer sequence machinery — the algorithmic heart of PRIX.
//!
//! Prüfer (1918) constructed a one-to-one correspondence between labeled
//! trees and sequences by repeatedly deleting the leaf with the smallest
//! label and recording its parent. PRIX (paper §3.1) uses a *modified*
//! construction of length `n − 1` (deletion continues until one node is
//! left) over trees whose nodes are numbered `1..=n` in postorder, which
//! gives Lemma 1: *the node deleted the i-th time is the node numbered
//! i*. Consequently
//!
//! * `NPS[i]` = postorder number of the **parent** of node `i`
//!   (the *Numbered Prüfer Sequence*),
//! * `LPS[i]` = label of that parent (the *Labeled Prüfer Sequence*).
//!
//! This crate provides:
//!
//! * [`PruferSeq`] — LPS/NPS construction, both *Regular* (§3.1) and
//!   *Extended* (§5.6: a dummy child under every leaf pulls every label
//!   of the original tree into the LPS),
//! * [`reconstruct`] — the inverse transformation (tree from sequence),
//!   witnessing the one-to-one correspondence,
//! * [`refine`] — the refinement predicates of §4: connectedness
//!   (Theorem 2), gap consistency (Definition 3), frequency consistency
//!   (Definition 4), leaf matching (§4.4), and the wildcard relaxations
//!   of §4.5,
//! * [`maxgap`] — the MaxGap upper-bounding distance metric of §5.4
//!   (Definition 5 / Theorem 4),
//! * [`subseq`] — in-memory subsequence-match enumeration, used by the
//!   index-free reference matcher and the test oracle.

pub mod maxgap;
pub mod reconstruct;
pub mod refine;
pub mod seq;
pub mod subseq;

pub use maxgap::MaxGapTable;
pub use refine::{
    check_connectedness, check_frequency_consistency, check_gap_consistency, check_leaves,
    embedding, embedding_into, refine_match, EdgeKind, RefineCtx,
};
pub use seq::{ExtendedTree, PruferSeq};
pub use subseq::subsequence_positions;
