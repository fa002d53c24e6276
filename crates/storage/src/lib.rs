//! Disk-based storage substrate for the PRIX reproduction.
//!
//! The paper's evaluation (§6.1) runs every index on GiST B⁺-trees over
//! 8 KiB pages with a 2000-page buffer pool and direct I/O, and reports
//! cost as *pages read from disk*. This crate rebuilds that substrate:
//!
//! * [`Pager`] — the page-id counter and I/O counters of a page space,
//! * [`BufferPool`] — a page cache: the pages themselves, each held
//!   once, and a fixed-capacity *sharded* LRU over their ids (one lock
//!   per shard, so concurrent queries don't serialize on a global mutex) that
//!   counts logical and physical page accesses ([`IoStats`]); clearing
//!   the pool ([`BufferPool::clear`]) gives the cold-cache runs the
//!   paper measures with direct I/O,
//! * [`Lru`] — the one LRU policy, which the pool's shards, every
//!   tier's block cache and the server's caches keep,
//! * [`BPlusTree`] — a read-only B⁺-tree over byte-string keys (memcmp
//!   order), bulk-loaded from sorted entries (duplicates kept in load
//!   order), with point and range scans: ViST's indexes,
//! * [`RecordStore`] — a heap file for variable-length records (NPS
//!   arrays, leaf-node lists, positional streams) with overflow chains,
//! * [`segment`] — the immutable tier files and the manifest naming
//!   them, and [`wal`] — the batch log: together, what a file-backed
//!   database holds on disk.
//!
//! The buffer pool holds only the mutable delta's records; the tiers'
//! files are read past it, through each file's own block cache. Both
//! count into one [`IoStats`], so the "Disk IO (pages)" columns of
//! Tables 4–9 are a cold query's [`IoSnapshot::seg_block_fetches`]
//! (tier blocks fetched) plus its [`IoSnapshot::physical_reads`]
//! (delta pages missed).

pub mod bptree;
pub mod buffer;
pub mod crc;
pub mod error;
pub mod lru;
pub mod pager;
pub mod record;
pub mod segment;
pub mod stats;
pub mod store;
pub mod sync;
pub mod wal;

pub use bptree::BPlusTree;
pub use buffer::BufferPool;
pub use crc::crc32;
pub use error::{Result, StorageError};
pub use lru::Lru;
pub use pager::{PageId, Pager, NIL_PAGE, PAGE_SIZE};
pub use record::{RecordId, RecordStore};
pub use segment::{
    env_temp_factory, BlockCache, FileSegEnv, Manifest, ManifestSegment, MemSegEnv, SegTrieStats,
    SegmentBuilder, SegmentCheck, SegmentEnv, SegmentLayout, SegmentReader, SymbolRun,
    ValueRunBuilder, ValueRunReader, VxCheck, VxEntry, VxLayout, VxSection, SEG_KIND_EP,
    SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX, SEG_VERSION, SYM_VERSION, VX_MAX_KEY_LEN, VX_VERSION,
};
pub use stats::{IoScope, IoSnapshot, IoStats};
pub use store::{FileStore, MemStore, RawStore};
pub use wal::{BatchLog, BatchMode, LogContents, LogRecord, RecoveryReport, CHECKPOINT_LOG_BYTES};
