//! Fixed-capacity sharded LRU buffer pool over pages held once.
//!
//! Mirrors the paper's experimental setup (§6.1): a pool of 2000 pages of
//! 8 KiB each. Every page request goes through the pool; a request for a
//! page the LRU does not hold is a *physical read* — the "Disk IO" metric
//! of Tables 4–9. Benchmarks call [`BufferPool::clear`] before each query
//! to measure from a cold cache, which is what the paper's direct-I/O
//! configuration achieves.
//!
//! The pool is a page cache and nothing more: its page table and a
//! per-shard [`Lru`] over page ids that counts the misses. Every page
//! lives once, boxed in its shard's page table, and the LRU keeps only
//! page ids: a miss copies nothing, and an eviction or a `clear` writes
//! nothing back. They decide what the next request counts, nothing
//! else. Which bytes a reader may look at, and for how long the I/O
//! counters live, is the pool's owner's business.
//!
//! # Sharding
//!
//! The pool is split into a power-of-two number of **shards** (default:
//! `min(16, available cores)` rounded down to a power of two), each with
//! its own mutex, page table and LRU. Pages are assigned
//! to shards by the low bits of their [`PageId`]; since pagers allocate
//! ids sequentially, adjacent pages — which tend to be accessed together
//! by B⁺-tree descents and record scans — land on *different* shards, so
//! concurrent queries rarely contend on one lock. Per-shard capacities
//! sum exactly to the configured total, preserving the paper's 2000-page
//! budget.
//!
//! Sharding does not change the I/O accounting: a physical read is still
//! one request for a non-resident page, and as long as the working set
//! mapped to each shard fits its capacity (always true for the paper's
//! workloads under the 2000-page budget), eviction never fires and the
//! cold-cache `physical_reads` counts are identical to a single global
//! LRU. Only under eviction pressure do the per-shard LRU decisions
//! diverge from a global LRU — correctness is unaffected either way.

use std::sync::Arc;

use crate::error::Result;
use crate::lru::Lru;
use crate::pager::{PageId, Pager, PAGE_SIZE};
use crate::stats::{IoSnapshot, IoStats};
use crate::sync::Mutex;

/// Default pool capacity, matching the paper's 2000-page configuration.
pub const DEFAULT_CAPACITY: usize = 2000;

/// Upper bound on the default shard count (`min(16, cores)`).
pub const MAX_DEFAULT_SHARDS: usize = 16;

/// One shard: the pages whose ids map to it, and the LRU over a slice
/// of the total capacity that says which of them a request finds
/// resident.
struct Shard {
    /// Page `id` at slot `id >> shard_bits` (see [`BufferPool::locate`]).
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    lru: Lru<PageId, ()>,
}

/// Default shard count for a pool of `capacity` pages: `min(16, cores)`
/// rounded down to a power of two, and never more than `capacity` so
/// every shard owns at least one LRU slot.
fn default_shards(capacity: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let want = MAX_DEFAULT_SHARDS.min(cores).min(capacity).max(1);
    1 << want.ilog2()
}

/// A shared sharded LRU cache of pages over a [`Pager`].
///
/// All methods take `&self`; the pool is internally synchronized (one
/// mutex per shard) and is typically wrapped in an [`Arc`] shared by
/// every index of a database.
pub struct BufferPool {
    pager: Pager,
    stats: Arc<IoStats>,
    shards: Box<[Mutex<Shard>]>,
    /// log2 of the shard count.
    shard_bits: u32,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool over `pager` holding at most `capacity` pages,
    /// with the default shard count (`min(16, cores)` as a power of
    /// two, clamped to `capacity`).
    pub fn new(pager: Pager, capacity: usize) -> Self {
        let shards = default_shards(capacity);
        Self::with_shards(pager, capacity, shards)
    }

    /// Creates a pool with an explicit shard count. `shards` must be a
    /// power of two and no larger than `capacity`, so every shard owns
    /// at least one LRU slot. `with_shards(pager, cap, 1)` behaves
    /// exactly like the classic single-mutex global-LRU pool.
    pub fn with_shards(pager: Pager, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one page");
        assert!(
            shards >= 1 && shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        assert!(
            shards <= capacity,
            "shard count {shards} exceeds capacity {capacity}: every shard needs room for a page"
        );
        let stats = pager.stats();
        // Split the capacity so the per-shard budgets sum exactly to the
        // configured total: the first `capacity % shards` shards take
        // one extra slot.
        let base = capacity / shards;
        let extra = capacity % shards;
        let shard = |i: usize| Shard {
            pages: Vec::new(),
            lru: Lru::new(base + usize::from(i < extra)),
        };
        BufferPool {
            pager,
            stats,
            shards: (0..shards).map(|i| Mutex::new(shard(i))).collect(),
            shard_bits: shards.trailing_zeros(),
            capacity,
        }
    }

    /// The underlying pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Maximum number of resident pages (summed over all shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard owning page `id` and the page's slot in it. Sequential
    /// ids round-robin across shards (low-bit assignment), spreading
    /// adjacent pages over different locks.
    #[inline]
    fn locate(&self, id: PageId) -> (usize, usize) {
        let shard = (id as usize) & (self.shards.len() - 1);
        (shard, (id >> self.shard_bits) as usize)
    }

    /// Convenience snapshot of the I/O counters.
    pub fn snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Allocates a fresh zeroed page, resident.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.pager.allocate();
        let (s, slot) = self.locate(id);
        let mut shard = self.shards[s].lock();
        if shard.pages.len() <= slot {
            shard
                .pages
                .resize_with(slot + 1, || Box::new([0u8; PAGE_SIZE]));
        }
        shard.lru.touch(id, || ());
        Ok(id)
    }

    /// Runs `f` over an immutable view of page `id`.
    ///
    /// `f` runs under the page's shard lock; accesses to pages on other
    /// shards proceed concurrently.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let (s, slot) = self.locate(id);
        let mut shard = self.shards[s].lock();
        self.fetch(&mut shard, id);
        Ok(f(&shard.pages[slot]))
    }

    /// Runs `f` over a mutable view of page `id`, in place.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let (s, slot) = self.locate(id);
        let mut shard = self.shards[s].lock();
        self.fetch(&mut shard, id);
        Ok(f(&mut shard.pages[slot]))
    }

    /// Drops every page from the LRU, so the next accesses are physical
    /// reads (cold-cache measurement, cf. direct I/O §6.1). The pages
    /// themselves stay where they are: nothing is written back.
    pub fn clear(&self) -> Result<()> {
        for shard in self.shards.iter() {
            shard.lock().lru.clear();
        }
        Ok(())
    }

    /// Number of pages currently resident (summed over all shards).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// Counts a request for page `id` — a logical read, and a physical
    /// one when the shard's LRU did not hold it — and makes it the
    /// shard's most recently used page.
    fn fetch(&self, shard: &mut Shard, id: PageId) {
        self.stats.record_logical_read();
        if shard.lru.touch(id, || ()) {
            self.stats.record_physical_read();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_pool(cap: usize) -> BufferPool {
        BufferPool::new(Pager::in_memory(), cap)
    }

    #[test]
    fn allocate_then_read_back() {
        let pool = mem_pool(4);
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[10] = 99).unwrap();
        let v = pool.with_page(p, |d| d[10]).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn fresh_pages_read_as_zero() {
        let pool = BufferPool::with_shards(Pager::in_memory(), 4, 4);
        let ids: Vec<_> = (0..9).map(|_| pool.allocate_page().unwrap()).collect();
        for id in ids {
            assert!(pool.with_page(id, |d| d.iter().all(|&b| b == 0)).unwrap());
        }
    }

    #[test]
    fn hits_do_not_cause_physical_reads() {
        let pool = mem_pool(4);
        let p = pool.allocate_page().unwrap();
        let before = pool.snapshot();
        for _ in 0..10 {
            pool.with_page(p, |_| ()).unwrap();
        }
        let d = pool.snapshot().since(&before);
        assert_eq!(d.logical_reads, 10);
        assert_eq!(d.physical_reads, 0);
    }

    #[test]
    fn eviction_respects_lru_order() {
        // One shard makes eviction order globally deterministic, like
        // the classic single-mutex pool.
        let pool = BufferPool::with_shards(Pager::in_memory(), 2, 1);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        let c = pool.allocate_page().unwrap(); // evicts a (LRU)
        let before = pool.snapshot();
        pool.with_page(b, |_| ()).unwrap(); // hit
        pool.with_page(c, |_| ()).unwrap(); // hit
        assert_eq!(pool.snapshot().since(&before).physical_reads, 0);
        pool.with_page(a, |_| ()).unwrap(); // miss
        assert_eq!(pool.snapshot().since(&before).physical_reads, 1);
    }

    #[test]
    fn written_pages_survive_eviction() {
        let pool = mem_pool(1);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 7).unwrap();
        let b = pool.allocate_page().unwrap(); // evicts a
        pool.with_page_mut(b, |d| d[0] = 8).unwrap();
        let va = pool.with_page(a, |d| d[0]).unwrap(); // evicts b
        assert_eq!(va, 7);
        let vb = pool.with_page(b, |d| d[0]).unwrap();
        assert_eq!(vb, 8);
    }

    #[test]
    fn clear_forces_cold_reads() {
        let pool = mem_pool(8);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[3] = 5).unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        let before = pool.snapshot();
        let v = pool.with_page(a, |d| d[3]).unwrap();
        assert_eq!(v, 5);
        assert_eq!(pool.snapshot().since(&before).physical_reads, 1);
    }

    /// A `clear` after writes empties the LRU and writes nothing back:
    /// re-reading each page is one physical read, and no page is ever
    /// written.
    #[test]
    fn clear_after_writes_writes_nothing_back() {
        let pool = BufferPool::with_shards(Pager::in_memory(), 16, 4);
        let ids: Vec<_> = (0..12).map(|_| pool.allocate_page().unwrap()).collect();
        let before = pool.snapshot();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[5] = i as u8).unwrap();
        }
        pool.clear().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |d| d[5]).unwrap(), i as u8);
        }
        let d = pool.snapshot().since(&before);
        assert_eq!(d.physical_writes, 0, "nothing is written back");
        assert_eq!(d.physical_reads, ids.len() as u64, "one per re-read page");
    }

    #[test]
    fn many_pages_under_small_pool() {
        let pool = mem_pool(3);
        let ids: Vec<_> = (0..50).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[0] = i as u8).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(id, |d| d[0]).unwrap();
            assert_eq!(v, i as u8);
        }
        assert!(pool.resident() <= 3);
    }

    #[test]
    fn default_shard_count_is_power_of_two_and_capped() {
        for cap in [1, 2, 3, 7, 8, 100, DEFAULT_CAPACITY] {
            let pool = mem_pool(cap);
            let n = pool.shards.len();
            assert!(n.is_power_of_two(), "cap {cap}: {n} shards");
            assert!(n <= cap, "cap {cap}: {n} shards");
            assert!(n <= MAX_DEFAULT_SHARDS, "cap {cap}: {n} shards");
            assert_eq!(pool.capacity(), cap);
        }
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        // Capacity 5 over 4 shards: 2+1+1+1. Fill with far more pages
        // than capacity; residency never exceeds the configured total.
        let pool = BufferPool::with_shards(Pager::in_memory(), 5, 4);
        let ids: Vec<_> = (0..64).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[1] = i as u8).unwrap();
        }
        assert!(pool.resident() <= 5);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |d| d[1]).unwrap(), i as u8);
        }
        assert!(pool.resident() <= 5);
    }

    #[test]
    fn sharded_and_global_pools_agree_on_cold_misses() {
        // Without eviction pressure, cold-cache physical reads are one
        // per distinct page regardless of sharding — the invariant that
        // keeps the paper's Disk-IO columns stable.
        for shards in [1usize, 2, 4, 8] {
            let pool = BufferPool::with_shards(Pager::in_memory(), 64, shards);
            let ids: Vec<_> = (0..32).map(|_| pool.allocate_page().unwrap()).collect();
            pool.clear().unwrap();
            let before = pool.snapshot();
            for &id in &ids {
                pool.with_page(id, |_| ()).unwrap();
                pool.with_page(id, |_| ()).unwrap(); // hit
            }
            let d = pool.snapshot().since(&before);
            assert_eq!(d.physical_reads, 32, "{shards} shards");
            assert_eq!(d.logical_reads, 64, "{shards} shards");
        }
    }

    /// Pools over pagers that share one set of counters count into it
    /// together, and a pool dropped takes nothing with it: what an owner
    /// that swaps pools reads as its lifetime I/O.
    #[test]
    fn pools_over_shared_counters_count_into_one_set() {
        let first = mem_pool(4);
        let stats = first.pager().stats();
        let p = first.allocate_page().unwrap();
        first.clear().unwrap();
        first.with_page(p, |_| ()).unwrap();
        drop(first);
        let second = BufferPool::new(Pager::with_stats(Arc::clone(&stats)), 4);
        let q = second.allocate_page().unwrap();
        second.clear().unwrap();
        second.with_page(q, |_| ()).unwrap();
        second.with_page(q, |_| ()).unwrap();
        let io = stats.snapshot();
        assert_eq!((io.logical_reads, io.physical_reads), (3, 2));
        assert_eq!(second.snapshot(), io, "one set, read through either");
    }

    #[test]
    fn concurrent_access_across_shards() {
        let pool = std::sync::Arc::new(BufferPool::with_shards(Pager::in_memory(), 64, 8));
        let ids: Vec<_> = (0..48).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[2] = i as u8).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = &pool;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, &id) in ids.iter().enumerate() {
                            if (i + round) % 3 == 0 {
                                continue;
                            }
                            assert_eq!(pool.with_page(id, |d| d[2]).unwrap(), i as u8);
                        }
                    }
                });
            }
        });
    }
}
