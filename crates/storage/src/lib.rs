//! Disk-based storage substrate for the PRIX reproduction.
//!
//! The paper's evaluation (§6.1) runs every index on GiST B⁺-trees over
//! 8 KiB pages with a 2000-page buffer pool and direct I/O, and reports
//! cost as *pages read from disk*. This crate rebuilds that substrate:
//!
//! * [`Pager`] — a page-granular in-memory backing store,
//! * [`BufferPool`] — a fixed-capacity *sharded* LRU cache over a pager
//!   (one lock per shard, so concurrent queries don't serialize on a
//!   global mutex) that counts logical and physical page accesses
//!   ([`IoStats`]); clearing the pool ([`BufferPool::clear`]) gives the
//!   cold-cache runs the paper measures with direct I/O,
//! * [`BPlusTree`] — a B⁺-tree over byte-string keys (memcmp order) with
//!   duplicate-key support, point/range scans, and sorted bulk loading,
//! * [`RecordStore`] — a heap file for variable-length records (NPS
//!   arrays, leaf-node lists, positional streams) with overflow chains,
//! * [`segment`] — the immutable tier files and the manifest naming
//!   them, and [`wal`] — the batch log: together, what a file-backed
//!   database holds on disk.
//!
//! All components of one database share a single buffer pool, so the
//! "Disk IO (pages)" columns of Tables 4–9 fall out of
//! [`IoSnapshot::physical_reads`].

pub mod bptree;
pub mod buffer;
pub mod crc;
pub mod error;
pub mod pager;
pub mod record;
pub mod segment;
pub mod stats;
pub mod store;
pub mod sync;
pub mod wal;

pub use bptree::BPlusTree;
pub use buffer::{BufferPool, EpochPin, PinGuard};
pub use crc::crc32;
pub use error::{Result, StorageError};
pub use pager::{PageId, Pager, NIL_PAGE, PAGE_SIZE};
pub use record::{RecordId, RecordStore};
pub use segment::{
    env_temp_factory, FileSegEnv, Manifest, ManifestSegment, MemSegEnv, SegTrieStats,
    SegmentBuilder, SegmentCheck, SegmentEnv, SegmentLayout, SegmentReader, SymbolRun,
    ValueRunBuilder, ValueRunReader, VxCheck, VxEntry, VxSection, SEG_KIND_EP, SEG_KIND_RP,
    SEG_KIND_SYM, SEG_KIND_VX, SEG_VERSION, SYM_VERSION, VX_MAX_KEY_LEN, VX_VERSION,
};
pub use stats::{IoScope, IoSnapshot, IoStats};
pub use store::{FileStore, MemStore, RawStore};
pub use wal::{BatchLog, BatchMode, LogContents, LogRecord, RecoveryReport, CHECKPOINT_LOG_BYTES};
