//! Page-granular backing store.
//!
//! A [`Pager`] owns a flat array of fixed-size pages in process memory:
//! the mutable delta of a database, every index of an in-memory build,
//! the alternative engines' substrates. Nothing of it is written to a
//! file — a file-backed database keeps its delta durable as the batch
//! log ([`crate::wal`]) and rebuilds these pages by replaying it. A
//! page read through the [`crate::BufferPool`] that is not resident is
//! still a *physical read*, the paper's "Disk IO" column: the cold-cache
//! measurements keep their meaning. Page 0 is reserved at creation so
//! that [`NIL_PAGE`] (= 0) can serve as a null pointer in page layouts.

use std::sync::Arc;

use crate::error::Result;
use crate::stats::IoStats;
use crate::sync::RwLock;

/// Size of every page, matching the paper's 8 K page configuration §6.1.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a pager.
pub type PageId = u64;

/// Null page pointer (page 0 is reserved and never handed out).
pub const NIL_PAGE: PageId = 0;

/// A fixed-page-size backing store with atomic page allocation.
///
/// The pager itself performs raw reads/writes; the [`crate::BufferPool`]
/// layers caching and I/O accounting on top. All methods take `&self` and
/// are thread-safe.
pub struct Pager {
    pages: RwLock<Vec<Box<[u8; PAGE_SIZE]>>>,
    stats: Arc<IoStats>,
}

impl Pager {
    /// Creates an empty pager, its page 0 reserved.
    pub fn in_memory() -> Self {
        Pager {
            pages: RwLock::new(vec![Box::new([0u8; PAGE_SIZE])]),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The I/O counters shared with buffer pools over this pager.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Allocates a fresh zeroed page and returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.write();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(pages.len() as PageId - 1)
    }

    /// Number of allocated pages (including the reserved page 0).
    pub fn num_pages(&self) -> u64 {
        self.pages.read().len() as u64
    }

    /// Reads page `id` into `buf`. Counts as a physical read.
    pub fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.stats.record_physical_read();
        buf.copy_from_slice(&self.pages.read()[id as usize][..]);
        Ok(())
    }

    /// Writes `buf` to page `id`. Counts as a physical write.
    pub fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.stats.record_physical_write();
        self.pages.write()[id as usize].copy_from_slice(buf);
        Ok(())
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
        assert_eq!(p.num_pages(), 2);
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
}
