//! Fixed-capacity sharded LRU buffer pool.
//!
//! Mirrors the paper's experimental setup (§6.1): a pool of 2000 pages of
//! 8 KiB each. Every page request goes through the pool; misses are
//! *physical reads* — the "Disk IO" metric of Tables 4–9. Benchmarks call
//! [`BufferPool::clear`] before each query to measure from a cold cache,
//! which is what the paper's direct-I/O configuration achieves.
//!
//! # Sharding
//!
//! The pool is split into a power-of-two number of **shards** (default:
//! `min(16, available cores)` rounded down to a power of two), each with
//! its own mutex, LRU list, and page map. Pages are assigned to shards by
//! the low bits of their [`PageId`]; since pagers allocate ids
//! sequentially, adjacent pages — which tend to be accessed together by
//! B⁺-tree descents and record scans — land on *different* shards, so
//! concurrent queries rarely contend on one lock. Per-shard capacities
//! sum exactly to the configured total, preserving the paper's 2000-page
//! budget.
//!
//! Sharding does not change the I/O accounting: a physical read is still
//! one fetch of a non-resident page, and as long as the working set
//! mapped to each shard fits its capacity (always true for the paper's
//! workloads under the 2000-page budget), eviction never fires and the
//! cold-cache `physical_reads` counts are identical to a single global
//! LRU. Only under eviction pressure do the per-shard LRU decisions
//! diverge from a global LRU — correctness is unaffected either way.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::Result;
use crate::pager::{PageId, Pager, PAGE_SIZE};
use crate::stats::{IoSnapshot, IoStats};
use crate::sync::Mutex;

/// Default pool capacity, matching the paper's 2000-page configuration.
pub const DEFAULT_CAPACITY: usize = 2000;

/// Upper bound on the default shard count (`min(16, cores)`).
pub const MAX_DEFAULT_SHARDS: usize = 16;

const NIL: usize = usize::MAX;

struct Frame {
    page_id: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// One shard: an independently locked LRU list + page map over a slice
/// of the total capacity.
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Most recently used frame index.
    head: usize,
    /// Least recently used frame index.
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            frames: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Default shard count for a pool of `capacity` pages: `min(16, cores)`
/// rounded down to a power of two, and never more than `capacity` so
/// every shard owns at least one frame.
fn default_shards(capacity: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let want = MAX_DEFAULT_SHARDS.min(cores).min(capacity).max(1);
    // Largest power of two <= want.
    let mut shards = 1;
    while shards * 2 <= want {
        shards *= 2;
    }
    shards
}

/// A retained pre-image of one page: the bytes the page held when some
/// still-pinned epoch was published, kept alive until no pin at or
/// below `valid_through` remains.
struct Version {
    /// Highest pinned epoch this image serves: a reader pinned at
    /// `p <= valid_through` reads this image (or an older chain entry).
    valid_through: u64,
    image: Box<[u8; PAGE_SIZE]>,
}

/// Epoch bookkeeping for snapshot isolation: active pins and per-page
/// pre-image chains. One mutex guards both so pin registration can
/// never race chain pruning. Lock order: a shard lock may be held while
/// taking this lock; never the reverse.
#[derive(Default)]
struct VersionState {
    /// Active pin count per pinned epoch.
    pins: BTreeMap<u64, usize>,
    /// Pre-image chains, ascending by `valid_through` (at most one
    /// entry per page per published epoch).
    chains: HashMap<PageId, Vec<Version>>,
    /// Pages allocated during the in-flight ingest: invisible to every
    /// pinned snapshot (no pre-existing root can reach them), so they
    /// need no pre-image.
    new_pages: HashSet<PageId>,
}

thread_local! {
    /// The epoch the current thread's reads are pinned to, set by
    /// [`PinGuard`] for the duration of a snapshot query. `None` (the
    /// default everywhere, including the ingest writer) reads the live
    /// frames.
    static PINNED_EPOCH: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII registration of one reader pinned at a published epoch.
///
/// Holding the pin keeps every pre-image chain entry with
/// `valid_through >= epoch` alive; dropping it releases the epoch and
/// prunes chains nobody can read anymore. The pin itself does not
/// redirect reads — wrap the reading code in [`EpochPin::guard`] on
/// each thread that executes a pinned query.
pub struct EpochPin {
    pool: Arc<BufferPool>,
    epoch: u64,
}

impl EpochPin {
    /// The published epoch this pin holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Routes this thread's page reads to the pinned epoch until the
    /// guard drops. Nestable; the previous pin (if any) is restored.
    pub fn guard(&self) -> PinGuard {
        let prev = PINNED_EPOCH.with(|c| c.replace(Some(self.epoch)));
        PinGuard { prev }
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.pool.release_pin(self.epoch);
    }
}

/// Thread-local scope during which page reads resolve against a pinned
/// epoch (see [`EpochPin::guard`]).
pub struct PinGuard {
    prev: Option<u64>,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        PINNED_EPOCH.with(|c| c.set(self.prev));
    }
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
    capacity: usize,
    /// The last committed epoch (moved by [`BufferPool::commit_epoch`]).
    committed: AtomicU64,
    /// Latest epoch visible to new snapshots. It lags the committed
    /// epoch between a commit and [`BufferPool::publish_ingest`], so
    /// readers never pin state whose catalog they have not been handed
    /// yet.
    published: AtomicU64,
    /// Pins + pre-image chains (see [`VersionState`] for lock order).
    vstate: Mutex<VersionState>,
    /// Number of chain entries; gates the pinned-read lookup so the
    /// unversioned hot path costs one atomic load.
    versioned: AtomicUsize,
    /// Set between [`BufferPool::begin_ingest`] and publish/abort:
    /// `with_page_mut` captures a pre-image before the first
    /// modification of each pre-existing page.
    ingest_active: AtomicBool,
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
    /// at least one frame. `with_shards(pager, cap, 1)` behaves exactly
    /// like the classic single-mutex global-LRU pool.
    pub fn with_shards(pager: Pager, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!(
            shards >= 1 && shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        assert!(
            shards <= capacity,
            "shard count {shards} exceeds capacity {capacity}: every shard needs a frame"
        );
        let stats = pager.stats();
        // Split the capacity so the per-shard budgets sum exactly to the
        // configured total: the first `capacity % shards` shards take
        // one extra frame.
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Vec<Mutex<Shard>> = (0..shards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
            .collect();
        BufferPool {
            pager,
            stats,
            shards: shards.into_boxed_slice(),
            capacity,
            committed: AtomicU64::new(0),
            published: AtomicU64::new(0),
            vstate: Mutex::new(VersionState::default()),
            versioned: AtomicUsize::new(0),
            ingest_active: AtomicBool::new(false),
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

    /// Number of independently locked shards.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning page `id`. Sequential ids round-robin across
    /// shards (low-bit assignment), spreading adjacent pages over
    /// different locks.
    #[inline]
    fn shard_of(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[(id as usize) & (self.shards.len() - 1)]
    }

    /// Convenience snapshot of the I/O counters.
    pub fn snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// The latest *published* epoch: what a new snapshot pins. Lags the
    /// committed epoch between a commit barrier and
    /// [`BufferPool::publish_ingest`].
    pub fn published_epoch(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// The last committed epoch: what `prix add`-style offline writers
    /// report after a commit.
    pub fn current_epoch(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Records that a commit established `epoch` (the batch log's): the
    /// next [`BufferPool::publish_ingest`] makes it visible.
    pub fn commit_epoch(&self, epoch: u64) {
        self.committed.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Observability for long-held reader pins: the number of active
    /// [`EpochPin`] registrations and the oldest epoch any of them
    /// holds (`None` when nothing is pinned). `/metrics` derives the
    /// pinned-epoch lag (`published - oldest`) from this.
    pub fn pinned_epochs(&self) -> (usize, Option<u64>) {
        let vs = self.vstate.lock();
        let count = vs.pins.values().sum();
        let oldest = vs.pins.keys().next().copied();
        (count, oldest)
    }

    /// Re-seeds the epoch clock of a freshly built pool so it continues
    /// a predecessor's sequence: a reopened delta continues its log's,
    /// and compaction swaps in a brand-new delta while snapshots,
    /// epoch-keyed caches, and `/metrics` all require the published
    /// epoch to be monotone across that swap, so the new pool jumps
    /// forward before it is ever published. Only valid outside ingest
    /// mode and only forward.
    pub fn reseed_epoch(&self, epoch: u64) {
        assert!(
            !self.ingest_active.load(Ordering::Acquire),
            "reseed_epoch during an ingest round"
        );
        let vs = self.vstate.lock();
        assert!(
            vs.pins.is_empty(),
            "reseed_epoch with readers pinned on the old clock"
        );
        self.committed.fetch_max(epoch, Ordering::AcqRel);
        self.published.fetch_max(epoch, Ordering::AcqRel);
        drop(vs);
    }

    /// Pins the currently published epoch for a new reader. Registration
    /// shares the chain lock, so a concurrent publish either sees this
    /// pin (and retains its pre-images) or has not yet bumped
    /// `published` (and the pin lands on the new epoch).
    pub fn pin_epoch(self: &Arc<Self>) -> EpochPin {
        let mut vs = self.vstate.lock();
        let epoch = self.published.load(Ordering::Acquire);
        *vs.pins.entry(epoch).or_insert(0) += 1;
        drop(vs);
        EpochPin {
            pool: Arc::clone(self),
            epoch,
        }
    }

    fn release_pin(&self, epoch: u64) {
        let mut vs = self.vstate.lock();
        if let Some(n) = vs.pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                vs.pins.remove(&epoch);
            }
        }
        self.prune_locked(&mut vs);
    }

    /// Drops every chain entry no active pin can read. With an ingest
    /// in flight, the current round's captures (`valid_through ==
    /// published`) are always retained: `abort_ingest` needs them even
    /// if no reader does.
    fn prune_locked(&self, vs: &mut VersionState) {
        let min_pin = vs.pins.keys().next().copied();
        let floor = if self.ingest_active.load(Ordering::Acquire) {
            Some(self.published.load(Ordering::Acquire))
        } else {
            None
        };
        let mut dropped = 0usize;
        vs.chains.retain(|_, chain| {
            chain.retain(|v| {
                let keep = min_pin.is_some_and(|m| v.valid_through >= m)
                    || floor.is_some_and(|f| v.valid_through >= f);
                if !keep {
                    dropped += 1;
                }
                keep
            });
            !chain.is_empty()
        });
        if dropped > 0 {
            self.versioned.fetch_sub(dropped, Ordering::Release);
        }
    }

    /// Enters ingest mode: until [`BufferPool::publish_ingest`] or
    /// [`BufferPool::abort_ingest`], the first write to each
    /// pre-existing page captures its pre-image for pinned readers.
    ///
    /// Single-writer protocol: the caller must serialize ingests
    /// externally (the engine's shared wrapper holds its writer lock
    /// across begin → publish).
    pub fn begin_ingest(&self) {
        let already = self.ingest_active.swap(true, Ordering::AcqRel);
        assert!(!already, "nested ingest: the writer must be serialized");
    }

    /// Publishes the ingest round at the committed epoch, leaves ingest
    /// mode, and prunes pre-images nobody pins. Call after the round's
    /// commit; returns the published epoch.
    pub fn publish_ingest(&self) -> u64 {
        let mut vs = self.vstate.lock();
        let next = self.committed.load(Ordering::Acquire);
        self.published.store(next, Ordering::Release);
        self.ingest_active.store(false, Ordering::Release);
        vs.new_pages.clear();
        self.prune_locked(&mut vs);
        next
    }

    /// Rolls the in-flight ingest back: every page captured this round
    /// is restored to its pre-image and left dirty (the round's image
    /// may have been evicted into the pager; the restored one is written
    /// over it), the published epoch stays put, and ingest mode ends.
    /// Pages allocated during the round are left unreferenced.
    pub fn abort_ingest(&self) -> Result<()> {
        let published = self.published.load(Ordering::Acquire);
        let pages: Vec<PageId> = {
            let vs = self.vstate.lock();
            vs.chains
                .iter()
                .filter(|(_, c)| c.last().is_some_and(|v| v.valid_through == published))
                .map(|(&id, _)| id)
                .collect()
        };
        for id in pages {
            let mut shard = self.shard_of(id).lock();
            let idx = self.fetch(&mut shard, id)?;
            let mut vs = self.vstate.lock();
            let restored = match vs.chains.get_mut(&id) {
                Some(chain) if chain.last().is_some_and(|v| v.valid_through == published) => {
                    let v = chain.pop().expect("checked non-empty");
                    shard.frames[idx].data.copy_from_slice(&v.image[..]);
                    shard.frames[idx].dirty = true;
                    if chain.is_empty() {
                        vs.chains.remove(&id);
                    }
                    true
                }
                _ => false,
            };
            drop(vs);
            if restored {
                self.versioned.fetch_sub(1, Ordering::Release);
            }
        }
        let mut vs = self.vstate.lock();
        vs.new_pages.clear();
        self.ingest_active.store(false, Ordering::Release);
        self.prune_locked(&mut vs);
        Ok(())
    }

    /// Allocates a fresh zeroed page, resident and dirty.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.pager.allocate()?;
        if self.ingest_active.load(Ordering::Acquire) {
            self.vstate.lock().new_pages.insert(id);
        }
        let mut shard = self.shard_of(id).lock();
        let idx = self.take_frame(&mut shard)?;
        shard.frames[idx].page_id = id;
        shard.frames[idx].data.fill(0);
        shard.frames[idx].dirty = true;
        shard.map.insert(id, idx);
        shard.push_front(idx);
        Ok(id)
    }

    /// Runs `f` over an immutable view of page `id`.
    ///
    /// `f` runs under the page's shard lock; accesses to pages on other
    /// shards proceed concurrently. A thread inside a [`PinGuard`]
    /// scope reads the pre-image retained for its pinned epoch when the
    /// page has been modified by a later ingest.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let mut shard = self.shard_of(id).lock();
        if self.versioned.load(Ordering::Acquire) > 0 {
            if let Some(p) = PINNED_EPOCH.with(|c| c.get()) {
                let vs = self.vstate.lock();
                if let Some(chain) = vs.chains.get(&id) {
                    if let Some(v) = chain.iter().find(|v| v.valid_through >= p) {
                        self.stats.record_logical_read();
                        return Ok(f(&v.image));
                    }
                }
            }
        }
        let idx = self.fetch(&mut shard, id)?;
        Ok(f(&shard.frames[idx].data))
    }

    /// Runs `f` over a mutable view of page `id`, marking it dirty.
    ///
    /// During an ingest (between [`BufferPool::begin_ingest`] and
    /// publish/abort) the first modification of each pre-existing page
    /// captures its pre-image, so readers pinned at the still-published
    /// epoch keep seeing the bytes they pinned.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let mut shard = self.shard_of(id).lock();
        let idx = self.fetch(&mut shard, id)?;
        if self.ingest_active.load(Ordering::Acquire) {
            let mut vs = self.vstate.lock();
            let published = self.published.load(Ordering::Relaxed);
            if !vs.new_pages.contains(&id) {
                let chain = vs.chains.entry(id).or_default();
                if chain.last().is_none_or(|v| v.valid_through != published) {
                    chain.push(Version {
                        valid_through: published,
                        image: shard.frames[idx].data.clone(),
                    });
                    self.versioned.fetch_add(1, Ordering::Release);
                }
            }
        }
        shard.frames[idx].dirty = true;
        Ok(f(&mut shard.frames[idx].data))
    }

    /// Writes every dirty frame to the pager.
    pub fn flush(&self) -> Result<()> {
        for shard in self.shards.iter() {
            self.flush_shard(&mut shard.lock())?;
        }
        Ok(())
    }

    /// Writes the shard's dirty frames to the pager.
    fn flush_shard(&self, shard: &mut Shard) -> Result<()> {
        for f in shard.frames.iter_mut().filter(|f| f.dirty) {
            self.pager.write_page(f.page_id, &f.data)?;
            f.dirty = false;
        }
        Ok(())
    }

    /// Flushes and then drops every resident page, so the next accesses
    /// are physical reads (cold-cache measurement, cf. direct I/O §6.1).
    ///
    /// Each shard is flushed and emptied under its own lock, so readers
    /// racing a `clear` always see either the cached bytes or the
    /// flushed bytes re-read from the pager — never a torn state.
    pub fn clear(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            self.flush_shard(&mut shard)?;
            shard.frames.clear();
            shard.map.clear();
            shard.head = NIL;
            shard.tail = NIL;
        }
        Ok(())
    }

    /// Number of pages currently resident (summed over all shards).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Loads page `id` into a frame of its shard (hit or miss) and
    /// returns its index, moving it to the shard's MRU position.
    fn fetch(&self, shard: &mut Shard, id: PageId) -> Result<usize> {
        self.stats.record_logical_read();
        if let Some(&idx) = shard.map.get(&id) {
            shard.detach(idx);
            shard.push_front(idx);
            return Ok(idx);
        }
        let idx = self.take_frame(shard)?;
        self.pager.read_page(id, &mut shard.frames[idx].data)?;
        shard.frames[idx].page_id = id;
        shard.frames[idx].dirty = false;
        shard.map.insert(id, idx);
        shard.push_front(idx);
        Ok(idx)
    }

    /// Produces a detached frame index: grows the shard if below its
    /// capacity, otherwise evicts its LRU frame (writing it back if
    /// dirty).
    fn take_frame(&self, shard: &mut Shard) -> Result<usize> {
        if shard.frames.len() < shard.capacity {
            shard.frames.push(Frame {
                page_id: PageId::MAX,
                data: Box::new([0u8; PAGE_SIZE]),
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            return Ok(shard.frames.len() - 1);
        }
        let victim = shard.tail;
        debug_assert_ne!(victim, NIL, "capacity >= 1 guarantees a victim");
        shard.detach(victim);
        let old_id = shard.frames[victim].page_id;
        shard.map.remove(&old_id);
        if shard.frames[victim].dirty {
            self.pager.write_page(old_id, &shard.frames[victim].data)?;
            shard.frames[victim].dirty = false;
        }
        Ok(victim)
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
    fn dirty_pages_survive_eviction() {
        let pool = mem_pool(1);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 7).unwrap();
        let b = pool.allocate_page().unwrap(); // evicts a, must write it
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
            let n = pool.shard_count();
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

    #[test]
    fn pinned_reader_sees_pre_ingest_image() {
        let pool = Arc::new(mem_pool(4));
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[0] = 1).unwrap();
        let pin = pool.pin_epoch();
        assert_eq!(pin.epoch(), 0);
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 2).unwrap();
        // Unpinned (writer-side) reads see the in-flight bytes...
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 2);
        // ...pinned reads keep the pre-image, before and after publish.
        {
            let _g = pin.guard();
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 1);
        }
        pool.commit_epoch(1);
        assert_eq!(pool.publish_ingest(), 1);
        assert_eq!(pool.published_epoch(), 1);
        {
            let _g = pin.guard();
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 1);
        }
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 2);
        // Dropping the pin prunes the chain; fresh pins read live bytes.
        drop(pin);
        assert_eq!(pool.versioned.load(Ordering::Acquire), 0);
        let pin2 = pool.pin_epoch();
        assert_eq!(pin2.epoch(), 1);
        let _g = pin2.guard();
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn version_chain_serves_multiple_pinned_epochs() {
        let pool = Arc::new(mem_pool(4));
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[0] = 10).unwrap();
        let pin0 = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 11).unwrap();
        pool.commit_epoch(1);
        pool.publish_ingest();
        let pin1 = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 12).unwrap();
        pool.commit_epoch(2);
        pool.publish_ingest();
        {
            let _g = pin0.guard();
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 10, "epoch 0 view");
        }
        {
            let _g = pin1.guard();
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 11, "epoch 1 view");
        }
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 12, "live view");
        // Releasing the oldest pin prunes only its entry.
        drop(pin0);
        assert_eq!(pool.versioned.load(Ordering::Acquire), 1);
        drop(pin1);
        assert_eq!(pool.versioned.load(Ordering::Acquire), 0);
    }

    #[test]
    fn pinned_view_survives_eviction_pressure() {
        // Capacity 1: every access evicts. Pre-images live outside the
        // frame budget, so pinned reads stay correct under churn.
        let pool = Arc::new(BufferPool::with_shards(Pager::in_memory(), 1, 1));
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 1).unwrap();
        pool.with_page_mut(b, |d| d[0] = 2).unwrap();
        let pin = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(a, |d| d[0] = 101).unwrap();
        pool.with_page_mut(b, |d| d[0] = 102).unwrap();
        pool.commit_epoch(1);
        pool.publish_ingest();
        let _g = pin.guard();
        for _ in 0..3 {
            assert_eq!(pool.with_page(a, |d| d[0]).unwrap(), 1);
            assert_eq!(pool.with_page(b, |d| d[0]).unwrap(), 2);
        }
    }

    #[test]
    fn abort_ingest_restores_pre_images() {
        let pool = Arc::new(mem_pool(4));
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[0] = 5).unwrap();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 99).unwrap();
        let junk = pool.allocate_page().unwrap();
        pool.with_page_mut(junk, |d| d[0] = 77).unwrap();
        pool.abort_ingest().unwrap();
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 5, "rolled back");
        assert_eq!(pool.published_epoch(), 0, "no publish happened");
        // A later ingest starts from the restored state.
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 6).unwrap();
        pool.commit_epoch(1);
        assert_eq!(pool.publish_ingest(), 1);
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 6);
    }

    /// A commit moves the committed epoch ahead of the published one;
    /// the publish after it lands on the commit's epoch. A publish that
    /// no commit preceded moves nothing, and a reseed only moves both
    /// forward.
    #[test]
    fn publish_lands_on_the_committed_epoch() {
        let pool = Arc::new(mem_pool(8));
        pool.reseed_epoch(4);
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[0] = 3).unwrap();
        let pin = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 4).unwrap();
        pool.commit_epoch(5);
        // Between the commit and the publish, readers keep the old pin
        // target.
        assert_eq!((pool.current_epoch(), pool.published_epoch()), (5, 4));
        assert_eq!(pool.publish_ingest(), 5);
        {
            let _g = pin.guard();
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 3, "pinned view");
        }
        drop(pin);
        pool.begin_ingest();
        assert_eq!(pool.publish_ingest(), 5, "no commit, no new epoch");
        pool.reseed_epoch(2);
        assert_eq!(pool.published_epoch(), 5, "never backwards");
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
