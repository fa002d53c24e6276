//! Page-granular backing store.
//!
//! A [`Pager`] owns a flat array of fixed-size pages over a
//! [`RawStore`]: persistent stores through
//! [`Pager::create_durable`]/[`Pager::open_durable`] (the realistic
//! configuration, matching the paper's on-disk indexes), or process
//! memory through [`Pager::in_memory`] (alt-engine substrates, hermetic
//! tests). Page 0 is reserved at creation so that [`NIL_PAGE`] (= 0)
//! can serve as a null pointer in page layouts.
//!
//! # Durable mode: checksum sidecar + epoch
//!
//! A durable pager maintains a **checksum sidecar** (`<db>.sum` on
//! disk) next to the page file: a 16-byte header (magic + the database
//! **epoch**) followed by one CRC-32 entry per page. Every page write
//! updates its entry; every page read verifies it, so a torn sector or
//! bit rot surfaces as [`StorageError::Corrupt`] instead of a silently
//! wrong answer. In the page file itself page `i` lives at offset
//! `i * PAGE_SIZE`.
//!
//! The epoch counts committed write batches. The write-ahead log
//! ([`crate::wal`]) stamps its frames with the epoch they extend;
//! comparing the two on open is how recovery tells "crashed before the
//! commit hit the page file — replay" from "stale log left behind by a
//! crash after the pages were durable — discard".
//!
//! A checksum entry of 0 means "never written, skip verification"
//! (fresh pages read as zeroes before first write). A real CRC of 0 is
//! stored as 1, trading a 2⁻³² sliver of detection strength for an
//! unambiguous sentinel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::stats::IoStats;
use crate::store::{MemStore, RawStore};

/// Size of every page, matching the paper's 8 K page configuration §6.1.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a pager.
pub type PageId = u64;

/// Null page pointer (page 0 is reserved and never handed out).
pub const NIL_PAGE: PageId = 0;

/// Magic prefix of a checksum sidecar.
pub const SUM_MAGIC: &[u8; 8] = b"PRIXSUM\0";

/// Sidecar header: magic (8 bytes) + epoch (u64 LE).
const SUM_HEADER: u64 = 16;

/// Checksum sidecar: per-page CRC entries plus the database epoch.
struct SumFile {
    store: Box<dyn RawStore>,
    epoch: AtomicU64,
}

/// Maps a page CRC to its stored entry: 0 is reserved for "never
/// written", so a genuine CRC of 0 is stored as 1.
fn encode_crc(crc: u32) -> u32 {
    crc.max(1)
}

impl SumFile {
    fn create(store: Box<dyn RawStore>, epoch: u64) -> Result<Self> {
        store.set_len(0)?;
        let mut header = [0u8; SUM_HEADER as usize];
        header[..8].copy_from_slice(SUM_MAGIC);
        header[8..16].copy_from_slice(&epoch.to_le_bytes());
        store.write_at(0, &header)?;
        Ok(SumFile {
            store,
            epoch: AtomicU64::new(epoch),
        })
    }

    fn open(store: Box<dyn RawStore>) -> Result<Self> {
        let mut header = [0u8; SUM_HEADER as usize];
        if store.len()? < SUM_HEADER {
            return Err(StorageError::Corrupt {
                page: 0,
                reason: "checksum sidecar too small for its header".into(),
            });
        }
        store.read_at(0, &mut header)?;
        if &header[..8] != SUM_MAGIC {
            return Err(StorageError::Corrupt {
                page: 0,
                reason: "checksum sidecar has bad magic".into(),
            });
        }
        let epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
        Ok(SumFile {
            store,
            epoch: AtomicU64::new(epoch),
        })
    }

    /// Stored entry for `page`, or 0 ("unknown") when the sidecar has
    /// not grown past it yet.
    fn entry(&self, page: PageId) -> Result<u32> {
        let off = SUM_HEADER + page * 4;
        if self.store.len()? < off + 4 {
            return Ok(0);
        }
        let mut buf = [0u8; 4];
        self.store.read_at(off, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn set_entry(&self, page: PageId, value: u32) -> Result<()> {
        self.store
            .write_at(SUM_HEADER + page * 4, &value.to_le_bytes())
    }

    fn set_epoch(&self, epoch: u64) -> Result<()> {
        self.store.write_at(8, &epoch.to_le_bytes())?;
        self.epoch.store(epoch, Ordering::Relaxed);
        Ok(())
    }
}

/// A fixed-page-size backing store with atomic page allocation.
///
/// The pager itself performs raw reads/writes; the [`crate::BufferPool`]
/// layers caching and I/O accounting on top. All methods take `&self` and
/// are thread-safe.
pub struct Pager {
    store: Box<dyn RawStore>,
    sum: Option<SumFile>,
    next_page: AtomicU64,
    stats: Arc<IoStats>,
}

impl Pager {
    /// Creates (truncating) a durable pager: `db` holds the pages,
    /// `sum` the checksum sidecar. The epoch starts at 1. The empty
    /// shell — reserved page, sidecar header — is synced before this
    /// returns: commits go to the log alone, so the first of them must
    /// find files [`Pager::open_durable`] accepts already on disk.
    pub fn create_durable(db: Box<dyn RawStore>, sum: Box<dyn RawStore>) -> Result<Self> {
        db.set_len(0)?;
        let sum = SumFile::create(sum, 1)?;
        let pager = Pager {
            store: db,
            sum: Some(sum),
            next_page: AtomicU64::new(0),
            stats: Arc::new(IoStats::new()),
        };
        pager.reserve_meta_page()?;
        pager.sync()?;
        Ok(pager)
    }

    /// Opens a durable pager over existing `db` + `sum` stores. Cold
    /// reads verify page checksums from here on. Run
    /// [`crate::wal::recover`] before trusting the contents.
    pub fn open_durable(db: Box<dyn RawStore>, sum: Box<dyn RawStore>) -> Result<Self> {
        let pages = db.len()? / PAGE_SIZE as u64;
        if pages == 0 {
            return Err(StorageError::Corrupt {
                page: 0,
                reason: "file too small to be a pager database".into(),
            });
        }
        let sum = SumFile::open(sum)?;
        Ok(Pager {
            store: db,
            sum: Some(sum),
            next_page: AtomicU64::new(pages),
            stats: Arc::new(IoStats::new()),
        })
    }

    /// Creates an in-memory pager (tests, micro-benches).
    pub fn in_memory() -> Self {
        let pager = Pager {
            store: Box::new(MemStore::new()),
            sum: None,
            next_page: AtomicU64::new(0),
            stats: Arc::new(IoStats::new()),
        };
        pager
            .reserve_meta_page()
            .expect("in-memory allocation cannot fail");
        pager
    }

    fn reserve_meta_page(&self) -> Result<()> {
        let id = self.allocate()?;
        debug_assert_eq!(id, 0);
        Ok(())
    }

    /// The I/O counters shared with buffer pools over this pager.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// `true` when reads are checksum-verified (durable mode).
    pub fn has_checksums(&self) -> bool {
        self.sum.is_some()
    }

    /// The database epoch (committed batch count). Panics on an
    /// in-memory pager, which has no epoch.
    pub fn epoch(&self) -> u64 {
        self.sum
            .as_ref()
            .expect("epoch requires a durable pager")
            .epoch
            .load(Ordering::Relaxed)
    }

    /// Advances the database epoch (not durable until [`Pager::sync`]).
    pub fn set_epoch(&self, epoch: u64) -> Result<()> {
        self.sum
            .as_ref()
            .expect("epoch requires a durable pager")
            .set_epoch(epoch)
    }

    /// Durability barrier over the checksum sidecar only. The commit
    /// protocol uses this for the epoch advance: the epoch may only
    /// become durable *after* a full [`Pager::sync`] has landed the
    /// pages, never in the same barrier — a crash inside one shared
    /// barrier could persist the new epoch over torn pages, and
    /// recovery would then discard the log that could repair them.
    pub fn sync_meta(&self) -> Result<()> {
        if let Some(sum) = &self.sum {
            sum.store.sync()?;
            self.stats.record_fsync();
        }
        Ok(())
    }

    /// Durability barrier over the page file and the checksum sidecar.
    pub fn sync(&self) -> Result<()> {
        self.store.sync()?;
        self.stats.record_fsync();
        if let Some(sum) = &self.sum {
            sum.store.sync()?;
            self.stats.record_fsync();
        }
        Ok(())
    }

    /// Allocates a fresh zeroed page and returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let id = self.next_page.fetch_add(1, Ordering::Relaxed);
        // Extend the store eagerly so reads of fresh pages succeed.
        self.store.set_len((id + 1) * PAGE_SIZE as u64)?;
        Ok(id)
    }

    /// Number of allocated pages (including the reserved page 0).
    pub fn num_pages(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Grows the pager to cover page `id` if it does not already
    /// (recovery replays pages whose length extension a crash lost).
    pub fn ensure_allocated(&self, id: PageId) -> Result<()> {
        let mut cur = self.next_page.load(Ordering::Relaxed);
        while cur <= id {
            match self
                .next_page
                .compare_exchange(cur, id + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        if self.store.len()? < (id + 1) * PAGE_SIZE as u64 {
            self.store.set_len((id + 1) * PAGE_SIZE as u64)?;
        }
        Ok(())
    }

    /// Reads page `id` into `buf`. Counts as a physical read. In
    /// durable mode the page is verified against its sidecar checksum;
    /// a mismatch (torn write, bit rot) is [`StorageError::Corrupt`].
    pub fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        debug_assert!(id < self.num_pages(), "read of unallocated page {id}");
        self.stats.record_physical_read();
        self.store.read_at(id * PAGE_SIZE as u64, buf)?;
        if let Some(sum) = &self.sum {
            let want = sum.entry(id)?;
            if want != 0 && want != encode_crc(crc32(buf)) {
                return Err(StorageError::Corrupt {
                    page: id,
                    reason: "checksum mismatch (torn or corrupted page)".into(),
                });
            }
        }
        Ok(())
    }

    /// Writes `buf` to page `id`. Counts as a physical write. In
    /// durable mode the sidecar checksum entry is updated in the same
    /// call. **Not durable** until [`Pager::sync`].
    pub fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        debug_assert!(id < self.num_pages(), "write of unallocated page {id}");
        self.stats.record_physical_write();
        self.store.write_at(id * PAGE_SIZE as u64, buf)?;
        if let Some(sum) = &self.sum {
            sum.set_entry(id, encode_crc(crc32(buf)))?;
        }
        Ok(())
    }

    /// Verifies every allocated page against its sidecar checksum
    /// (`prix fsck`). Returns `(verified, skipped)` — skipped pages
    /// have no recorded checksum (never written, e.g. freshly
    /// allocated). Errors on the first mismatch. Panics on an
    /// in-memory pager.
    pub fn verify_checksums(&self) -> Result<(u64, u64)> {
        assert!(
            self.sum.is_some(),
            "verify_checksums requires a durable pager"
        );
        let sum = self.sum.as_ref().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        let (mut verified, mut skipped) = (0u64, 0u64);
        for id in 0..self.num_pages() {
            if sum.entry(id)? == 0 {
                skipped += 1;
                continue;
            }
            self.read_page(id, &mut buf)?;
            verified += 1;
        }
        Ok((verified, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pager_roundtrip() {
        let p = Pager::in_memory();
        let a = p.allocate().unwrap();
        assert_eq!(a, 1, "page 0 is reserved");
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        p.write_page(a, &page).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        p.read_page(a, &mut back).unwrap();
        assert_eq!(back[0], 0xAB);
        assert_eq!(back[PAGE_SIZE - 1], 0xCD);
    }

    #[test]
    fn file_pager_roundtrip() {
        use crate::store::FileStore;
        let dir = std::env::temp_dir().join(format!("prix-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = Pager::create_durable(
            Box::new(FileStore::create(dir.join("t.db")).unwrap()),
            Box::new(FileStore::create(dir.join("t.db.sum")).unwrap()),
        )
        .unwrap();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let mut pa = [1u8; PAGE_SIZE];
        pa[7] = 42;
        p.write_page(a, &pa).unwrap();
        let pb = [2u8; PAGE_SIZE];
        p.write_page(b, &pb).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        p.read_page(a, &mut back).unwrap();
        assert_eq!(back[7], 42);
        p.read_page(b, &mut back).unwrap();
        assert_eq!(back[0], 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_pages_read_as_zero() {
        let p = Pager::in_memory();
        let a = p.allocate().unwrap();
        let mut buf = [9u8; PAGE_SIZE];
        p.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn stats_count_physical_io() {
        let p = Pager::in_memory();
        let a = p.allocate().unwrap();
        let buf = [0u8; PAGE_SIZE];
        p.write_page(a, &buf).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        p.read_page(a, &mut back).unwrap();
        p.read_page(a, &mut back).unwrap();
        let s = p.stats().snapshot();
        assert_eq!(s.physical_writes, 1);
        assert_eq!(s.physical_reads, 2);
    }

    fn durable_mem_pager() -> (Pager, MemStore, MemStore) {
        let db = MemStore::new();
        let sum = MemStore::new();
        let p = Pager::create_durable(Box::new(db.clone()), Box::new(sum.clone())).unwrap();
        (p, db, sum)
    }

    #[test]
    fn durable_pager_roundtrip_and_epoch_persist() {
        let (p, db, sum) = durable_mem_pager();
        assert!(p.has_checksums());
        assert_eq!(p.epoch(), 1);
        let a = p.allocate().unwrap();
        let mut page = [7u8; PAGE_SIZE];
        page[100] = 1;
        p.write_page(a, &page).unwrap();
        p.set_epoch(5).unwrap();
        p.sync().unwrap();
        drop(p);
        let p = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        assert_eq!(p.epoch(), 5);
        let mut back = [0u8; PAGE_SIZE];
        p.read_page(a, &mut back).unwrap();
        assert_eq!(back[100], 1);
        assert_eq!(
            p.verify_checksums().unwrap(),
            (1, 1),
            "page 0 never written"
        );
    }

    #[test]
    fn checksum_catches_torn_page() {
        let (p, db, sum) = durable_mem_pager();
        let a = p.allocate().unwrap();
        p.write_page(a, &[3u8; PAGE_SIZE]).unwrap();
        drop(p);
        // Tear one sector of the page behind the pager's back.
        let mut bytes = db.snapshot();
        let off = a as usize * PAGE_SIZE + 512;
        bytes[off..off + 512].fill(0);
        let p = Pager::open_durable(Box::new(MemStore::from_bytes(bytes)), Box::new(sum)).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        let err = p.read_page(a, &mut back).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { page, .. } if page == a),
            "{err}"
        );
        assert!(p.verify_checksums().is_err());
    }

    #[test]
    fn sync_counts_fsyncs() {
        let (p, _db, _sum) = durable_mem_pager();
        assert_eq!(
            p.stats().snapshot().fsyncs,
            2,
            "creation syncs the empty shell"
        );
        p.sync().unwrap();
        assert_eq!(p.stats().snapshot().fsyncs, 4, "page file + sidecar");
        let mem = Pager::in_memory();
        mem.sync().unwrap();
        assert_eq!(mem.stats().snapshot().fsyncs, 1);
    }
}
