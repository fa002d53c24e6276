//! Immutable index segments: external-merge-sort bulk loading into
//! implicit B⁺-tree files (the LSM-flavored half of the index
//! lifecycle).
//!
//! The incremental path indexes one document at a time through the
//! in-memory buffer pool — the right shape for trickle inserts, the wrong
//! one for loading millions of documents: every trie node becomes a
//! B⁺-tree insert, and cold scans churn the pool because pages carry no
//! key locality. A *segment* is the bulk alternative, following the
//! read-only bstree design (cds-bstree-file-readonly): sort everything
//! once with bounded memory, then write an **implicit** tree — entries
//! packed in key order with no per-node pointers, cut into blocks of
//! 4 KiB, plus a fence array (the first key of every block) that the
//! reader holds in memory.
//!
//! A segment tier is three such files, all of one make — a 128-byte
//! frame, sorted sections of whole blocks with resident fences, a CRC
//! table at the end — plus, when the tier's documents brought names the
//! symbol dictionary did not hold, a symbol run on the same frame and
//! CRC table:
//!
//! ```text
//!                 +-------+----------------------+---------------------+-----------+
//!   any of them:  | frame | format's own content | fences of its       | CRC table |
//!                 |       | and sorted sections  | sections (resident) |           |
//!                 +-------+----------------------+---------------------+-----------+
//!   <db>.gN.rp.seg   Trie-Symbol rows, Docid rows, records, meta   (structural, format 3)
//!   <db>.gN.ep.seg   the same for the extended sequences           (structural, format 3)
//!   <db>.gN.vx.seg   numeric and string leaf-value postings        (value run, format 2)
//!   <db>.gN.sym      the names generation N added to the dictionary (symbol run, format 1)
//!   <db>.gN.log      the batches generation N accepted since  (batch log, `crate::wal`)
//!   <db>.seg         the manifest naming the live files of every tier and the log
//!
//!   a block of either format's rows (varints; a restart is a row coded in
//!   full, every other row what it adds to the row before it):
//!                 +--------+------------+-----------------+-----+------+-----+------+---+-------+
//!                 | n_rows | n_restarts | restart offsets | row | Δrow… | row | Δrow… | … | zeros |
//!                 +--------+------------+-----------------+-----+------+-----+------+---+-------+
//! ```
//!
//! The modules, bottom up:
//!
//! * `sort` — bounded-memory external merge sort ([`ExternalSorter`]).
//! * `blockfile` — what the two formats share, written once: the frame,
//!   the buffered sequential writer, the CRC table, the block cache a
//!   tier's files share and its counters, the sorted section with its
//!   fence-guided scan and its verification pass, generic over how a
//!   fence is stored; the one
//!   block layout (varint rows with restarts, generic over the row) and
//!   the varint coding itself.
//! * `structural` — RP and EP segments ([`SegmentBuilder`],
//!   [`SegmentReader`]): delta-coded varint rows, a restart every 16
//!   and at every change of symbol, the streaming trie labeler that
//!   produces them (and [`label_paths`], its in-memory entry),
//!   per-document records.
//! * `valuerun` — a tier's value index ([`ValueRunBuilder`],
//!   [`ValueRunReader`]): entries with prefix-coded keys and
//!   delta-coded postings, and a resident tag directory.
//! * `symrun` — the names a tier interned ([`SymbolRun`]): a frame, an
//!   opaque name list read whole, a CRC table.
//! * `manifest` — the [`Manifest`]: the atomic commit point of every
//!   bulk build and compaction, naming the tiers and the live log.
//! * `env` — where the files live ([`SegmentEnv`]): real files, or
//!   memory in tests.

pub(crate) mod blockfile;
mod env;
mod manifest;
mod sort;
mod structural;
mod symrun;
mod valuerun;

pub use blockfile::{put_varint, take_varint, BlockCache};
pub use env::{env_temp_factory, FileSegEnv, MemSegEnv, SegmentEnv};
pub use manifest::{Manifest, ManifestSegment};
pub use sort::{ExternalSorter, SortItem, TempFactory};
pub use structural::{
    label_paths, DocEnd, SegTrieStats, SegmentBuilder, SegmentCheck, SegmentLayout, SegmentReader,
    TagEntry, SEG_KIND_EP, SEG_KIND_RP, SEG_VERSION,
};
pub use symrun::{SymbolRun, SEG_KIND_SYM, SYM_VERSION};
pub use valuerun::{
    ValueRunBuilder, ValueRunReader, VxCheck, VxEntry, VxLayout, VxSection, SEG_KIND_VX,
    VX_MAX_KEY_LEN, VX_VERSION,
};
