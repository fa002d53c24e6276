//! Page identities.
//!
//! A [`Pager`] hands out page ids and holds the I/O counters the
//! [`crate::BufferPool`] over it counts into; the pages themselves live
//! once, in the pool's shards. Nothing of it is written to a file — a
//! file-backed database keeps its delta durable as the batch log
//! ([`crate::wal`]) and rebuilds these pages by replaying it. Page 0 is
//! reserved at creation so that [`NIL_PAGE`] (= 0) can serve as a null
//! pointer in page layouts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::stats::IoStats;

/// Size of every page, matching the paper's 8 K page configuration §6.1.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a pager.
pub type PageId = u64;

/// Null page pointer (page 0 is reserved and never handed out).
pub const NIL_PAGE: PageId = 0;

/// The page-id counter and I/O counters of one page space. All methods
/// take `&self` and are thread-safe.
pub struct Pager {
    next: AtomicU64,
    stats: Arc<IoStats>,
}

impl Pager {
    /// Creates an empty pager, its page 0 reserved, with counters of
    /// its own.
    pub fn in_memory() -> Self {
        Self::with_stats(Arc::new(IoStats::new()))
    }

    /// An empty pager whose pool counts into `stats`: an owner that
    /// swaps pools keeps one set of counters across the swap.
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        Pager {
            next: AtomicU64::new(1),
            stats,
        }
    }

    /// The I/O counters shared with buffer pools over this pager.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Hands out a fresh page id.
    pub fn allocate(&self) -> PageId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of allocated pages (including the reserved page 0).
    pub fn num_pages(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_after_the_reserved_page() {
        let p = Pager::in_memory();
        assert_eq!(p.num_pages(), 1, "page 0 is reserved");
        assert_eq!(p.allocate(), 1);
        assert_eq!(p.allocate(), 2);
        assert_eq!(p.num_pages(), 3);
    }
}
