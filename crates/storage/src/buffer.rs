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
use crate::wal::{absorb_frames, stage_page_frame, LogImages, Wal};

/// Default pool capacity, matching the paper's 2000-page configuration.
pub const DEFAULT_CAPACITY: usize = 2000;

/// Size at which a commit is followed by a checkpoint: 8 MiB of log,
/// or 8 MiB of log images (1 024 of them), whichever comes first. The
/// first bounds replay on open and the disk space the log holds
/// between checkpoints; the second bounds the memory the images take,
/// whatever the pool size and however small the frames.
pub const CHECKPOINT_LOG_BYTES: u64 = 8 << 20;

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

/// A shared sharded LRU cache of pages over a [`Pager`].
///
/// All methods take `&self`; the pool is internally synchronized (one
/// mutex per shard) and is typically wrapped in an [`Arc`] shared by
/// every index of a database.
/// WAL attachment of a durable pool: the log plus the images of the
/// log-resident pages.
struct WalState {
    wal: Wal,
    /// Page -> the image the log implies for it: its frames (commit
    /// frames and eviction spills) since the last checkpoint, laid over
    /// one another. Until the next checkpoint the page file holds an
    /// older image of these pages, or none, so a miss on one of them
    /// copies this image, the page's next frame is the difference from
    /// it, and the checkpoint writes it.
    resident: LogImages,
}

impl WalState {
    /// Stages the frame that takes page `id` from what the log implies
    /// for it to `image`.
    fn stage(&self, batch: &mut Vec<u8>, id: PageId, image: &[u8; PAGE_SIZE]) {
        stage_page_frame(batch, id, self.resident.get(&id).map(|b| &**b), image);
    }

    /// Appends the staged frames (and, with `commit`, the record that
    /// commits them at that epoch) and folds them into the images —
    /// at once, ahead of any sync, so the images never trail the log.
    fn append(&mut self, batch: &mut Vec<u8>, commit: Option<u64>) -> Result<()> {
        self.wal.append(batch, commit)?;
        absorb_frames(batch, &mut self.resident)
    }
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

pub struct BufferPool {
    pager: Pager,
    stats: Arc<IoStats>,
    shards: Box<[Mutex<Shard>]>,
    capacity: usize,
    /// Present in durable (WAL) mode. Lock order: a shard lock may be
    /// held while taking this lock (eviction spill, staging, a miss on
    /// a log-resident page); never the reverse — [`BufferPool::commit`]
    /// appends with no shard lock held and cleans dirty bits *after*
    /// releasing it.
    wal: Option<Mutex<WalState>>,
    /// The last committed epoch of a durable pool: the pager's token at
    /// open, plus one per [`BufferPool::commit`] since. The pager's own
    /// epoch only catches up at a checkpoint.
    committed: AtomicU64,
    /// Latest epoch visible to new snapshots. Durable pools initialize
    /// it from the pager's commit token and re-sync it to the committed
    /// epoch on [`BufferPool::publish_ingest`]; in-memory pools count
    /// publishes. It deliberately lags the committed epoch between the
    /// commit barrier and publish, so readers never pin state whose
    /// catalog they have not been handed yet.
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
    /// Set by [`BufferPool::retire`]: the files are unlinked, so `Drop`
    /// has nothing worth writing.
    retired: AtomicBool,
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
        let epoch = if pager.has_checksums() {
            pager.epoch()
        } else {
            0
        };
        BufferPool {
            pager,
            stats,
            shards: shards.into_boxed_slice(),
            capacity,
            wal: None,
            committed: AtomicU64::new(epoch),
            published: AtomicU64::new(epoch),
            vstate: Mutex::new(VersionState::default()),
            versioned: AtomicUsize::new(0),
            ingest_active: AtomicBool::new(false),
            retired: AtomicBool::new(false),
        }
    }

    /// Creates a **durable** pool: page images reach the pager only
    /// in a checkpoint, after the log holding them is durable. Evicted
    /// dirty pages spill into `wal` instead of being stolen into the
    /// page file (a crash would otherwise persist half-applied tree
    /// mutations under the old catalog), and [`BufferPool::flush`]
    /// becomes a commit: one WAL append, one fsync.
    ///
    /// `pager` must be durable ([`Pager::create_durable`] /
    /// [`Pager::open_durable`]) so a checkpoint has an epoch to
    /// advance; `wal` is typically the log [`crate::wal::recover`]
    /// returned.
    pub fn with_wal(pager: Pager, capacity: usize, wal: Wal) -> Self {
        assert!(
            pager.has_checksums(),
            "a WAL pool requires a durable pager (epoch + checksums)"
        );
        let mut pool = Self::new(pager, capacity);
        pool.wal = Some(Mutex::new(WalState {
            wal,
            resident: LogImages::new(),
        }));
        pool
    }

    /// The underlying pager (epoch and checksum access for recovery
    /// tooling such as `prix fsck`).
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

    /// The engine-visible commit epoch: the last committed epoch of a
    /// durable pool (which the pager's own token trails until the next
    /// checkpoint), else the in-memory publish counter. What `prix
    /// add`-style offline writers report after a save.
    pub fn current_epoch(&self) -> u64 {
        if self.pager.has_checksums() {
            self.committed.load(Ordering::Acquire)
        } else {
            self.published.load(Ordering::Acquire)
        }
    }

    /// Current length of the write-ahead log in bytes, header included
    /// (0 without a WAL): what a crash right now would make the next
    /// open scan.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.lock().wal.len())
    }

    /// Pages whose latest image lives in the log, not the page file —
    /// what the next checkpoint will write, and how many 8 KiB log
    /// images the pool holds in memory until then.
    pub fn log_resident_pages(&self) -> usize {
        self.wal.as_ref().map_or(0, |w| w.lock().resident.len())
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
    /// a predecessor's sequence. Compaction swaps in a brand-new
    /// mutable database whose pager restarts at epoch 1; snapshots,
    /// epoch-keyed caches, and `/metrics` all require the published
    /// epoch to be monotone across that swap, so the new pool jumps
    /// forward before it is ever published. Only valid outside ingest
    /// mode and only forward. The jump is in memory; the next commit
    /// or checkpoint makes it durable.
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

    /// Tells the pool its files have been retired (compaction published
    /// a replacement generation and unlinked them). Readers still
    /// pinned here keep reading through the open handles; when the last
    /// of them lets go, `Drop` skips the final checkpoint — it would
    /// only write into files nothing can open again.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
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

    /// Publishes the committed ingest: re-syncs the published epoch to
    /// the committed one (in-memory pools count up), leaves ingest
    /// mode, and prunes pre-images nobody pins. Call after the dirty
    /// set is durable (`flush`/`commit`); returns the new epoch.
    pub fn publish_ingest(&self) -> u64 {
        let mut vs = self.vstate.lock();
        let next = if self.pager.has_checksums() {
            self.committed.load(Ordering::Acquire)
        } else {
            self.published.load(Ordering::Acquire) + 1
        };
        self.published.store(next, Ordering::Release);
        self.ingest_active.store(false, Ordering::Release);
        vs.new_pages.clear();
        self.prune_locked(&mut vs);
        next
    }

    /// Rolls the in-flight ingest back: every page captured this round
    /// is restored to its pre-image and left dirty (so the next commit
    /// logs it after any spill the round left in the WAL), the
    /// published epoch stays put, and ingest mode ends. Pages allocated
    /// during the round leak until the next vacuum — they are
    /// unreferenced, never committed into a catalog.
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
                    // The round's image may have left the pool: stolen
                    // into the page store (no WAL) or spilled into the
                    // log, where a later commit record would commit
                    // it. Dirty, the restored bytes are written after
                    // it and win.
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

    /// Makes all dirty pages durable. A pool without a WAL (in-memory
    /// engines and substrates) writes them straight to the pager (no
    /// sync, no atomicity promise); a durable pool delegates to
    /// [`BufferPool::commit`].
    ///
    /// Durable pools require external serialization against writers
    /// (`with_page_mut`/`allocate_page`) for the commit to be a
    /// consistent cut — the engine's `save()` takes `&mut self`, which
    /// provides exactly that. Concurrent *readers* are always fine.
    pub fn flush(&self) -> Result<()> {
        if self.wal.is_some() {
            self.commit()
        } else {
            for shard in self.shards.iter() {
                self.flush_shard(&mut shard.lock(), |_| ())?;
            }
            Ok(())
        }
    }

    /// Atomically commits the dirty set (durable pools): **one append,
    /// one fsync**.
    ///
    /// 1. encode what changed in every dirty frame, straight from the
    ///    pool — the runs that differ from the image the log already
    ///    implies for the page, or the whole page (less its zeros) the
    ///    first time since a checkpoint — into one batch buffer;
    /// 2. append the batch plus a commit record to the WAL as one group
    ///    write and `fsync` the WAL — from this instant the batch is
    ///    durable, redoable by [`crate::wal::recover`], and the commit
    ///    is done.
    ///
    /// Dirty pages evicted since the last commit already sit in the log
    /// as spills; preceding the commit record is what commits them. The
    /// page file is not touched: the committed images stay
    /// *log-resident* (a miss copies the log image) until a
    /// checkpoint, which this call runs itself once the log or its
    /// images have grown to [`CHECKPOINT_LOG_BYTES`].
    ///
    /// A crash before the fsync loses the whole batch (nothing else was
    /// written); a crash after it replays the whole batch on reopen.
    /// Nothing in between is observable.
    pub fn commit(&self) -> Result<()> {
        let walm = match &self.wal {
            Some(w) => w,
            None => return self.flush(),
        };
        // Phase A: stage dirty frames shard by shard. Writers are
        // externally serialized (see `flush`), so this is a consistent
        // cut; readers racing us at worst evict a page we already
        // staged, which spills the very image its staged runs lead to —
        // laid over it in phase B, they change nothing.
        let mut batch: Vec<u8> = Vec::new();
        let mut ids: Vec<PageId> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            let ws = walm.lock();
            for f in shard.frames.iter().filter(|f| f.dirty) {
                ws.stage(&mut batch, f.page_id, &f.data);
                ids.push(f.page_id);
            }
        }
        // Phase B: the durable step, under the WAL lock (no shard
        // locks held — see the lock-order note on the `wal` field).
        {
            let mut ws = walm.lock();
            if ids.is_empty() && ws.wal.is_fully_durable() {
                return Ok(()); // nothing dirty, nothing spilled: no fsyncs
            }
            let next_epoch = self.committed.load(Ordering::Acquire) + 1;
            ws.append(&mut batch, Some(next_epoch))?;
            ws.wal.sync()?;
            self.committed.store(next_epoch, Ordering::Release);
            let image_bytes = (ws.resident.len() * PAGE_SIZE) as u64;
            if ws.wal.len().max(image_bytes) >= CHECKPOINT_LOG_BYTES {
                self.write_back(&mut ws)?;
            }
        }
        // Phase C: mark the committed frames clean.
        let committed: HashSet<PageId> = ids.into_iter().collect();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            for f in shard.frames.iter_mut() {
                if f.dirty && committed.contains(&f.page_id) {
                    f.dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Commits, then brings the page file up to date and truncates the
    /// log (durable pools; others just [`BufferPool::flush`]). Runs on
    /// [`BufferPool::clear`], at server shutdown and from
    /// [`BufferPool::commit`] when the log or its images have grown to
    /// [`CHECKPOINT_LOG_BYTES`]; `Drop` runs the write-back half alone,
    /// and only when nothing is uncommitted. Free when the log is empty.
    ///
    /// Same serialization contract as [`BufferPool::flush`].
    pub fn checkpoint(&self) -> Result<()> {
        let walm = match &self.wal {
            Some(w) => w,
            None => return self.flush(),
        };
        self.commit()?;
        let mut ws = walm.lock();
        if ws.wal.is_empty() {
            return Ok(());
        }
        // WAL-before-page: every image is durable in the log before
        // any of them touches the page file.
        debug_assert!(ws.wal.is_fully_durable());
        self.write_back(&mut ws)
    }

    /// Makes the pool's current contents the durable base of its files
    /// **without logging them**: dirty frames go straight to the page
    /// file, then a checkpoint's barriers follow.
    ///
    /// Only sound while nothing durable names these files — the fresh
    /// mutable generation of a bulk build or a compaction, whose
    /// manifest write afterwards is the commit point. A crash in here
    /// leaves torn files that no manifest refers to; on a live database
    /// it would leave torn pages that no log can repair.
    pub fn checkpoint_unlogged(&self) -> Result<()> {
        let walm = self
            .wal
            .as_ref()
            .expect("an unlogged checkpoint needs a durable pool");
        for shard in self.shards.iter() {
            // An older spill of a flushed page must not overwrite it.
            self.flush_shard(&mut shard.lock(), |id| {
                walm.lock().resident.remove(&id);
            })?;
        }
        self.write_back(&mut walm.lock())
    }

    /// The checkpoint proper, under the WAL lock:
    ///
    /// 1. write the log image of every log-resident page (and its
    ///    sidecar checksum) to the pager and `fsync` both — pages
    ///    durable, epoch still old;
    /// 2. advance the pager epoch to the committed one and `fsync` the
    ///    sidecar — only now does the page file claim the commits;
    /// 3. truncate the WAL back to a bare header at that epoch.
    ///
    /// A crash in step 1 or 2 leaves the log intact under the old
    /// epoch: reopening replays it over whatever the page file holds —
    /// every page's first frame in the log is a whole image, so a page
    /// torn here is never the base of anything. A
    /// crash in step 3 leaves a log behind the database epoch, which
    /// recovery discards. Steps 1 and 2 must be separate barriers:
    /// inside one shared barrier a crash could persist the new epoch
    /// over torn pages, and recovery would discard the very log that
    /// could repair them as stale.
    fn write_back(&self, ws: &mut WalState) -> Result<()> {
        // Page order, so a checkpoint issues the same writes in the
        // same order on every run (the crash harness counts syscalls).
        let mut pages: Vec<PageId> = ws.resident.keys().copied().collect();
        pages.sort_unstable();
        for id in pages {
            self.pager.write_page(id, &ws.resident[&id])?;
        }
        self.pager.sync()?;
        let epoch = self.committed.load(Ordering::Acquire);
        self.pager.set_epoch(epoch)?;
        self.pager.sync_meta()?;
        ws.wal.reset(epoch)?;
        ws.resident.clear();
        self.stats.record_checkpoint();
        Ok(())
    }

    /// Writes the shard's dirty frames straight to the pager, telling
    /// `flushed` each page id as it goes clean.
    fn flush_shard(&self, shard: &mut Shard, mut flushed: impl FnMut(PageId)) -> Result<()> {
        for f in shard.frames.iter_mut().filter(|f| f.dirty) {
            self.pager.write_page(f.page_id, &f.data)?;
            f.dirty = false;
            flushed(f.page_id);
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
        // Durable pools checkpoint first (dirty pages may not bypass
        // the WAL, and a cold read should come from the page file),
        // then drop the now-clean frames.
        if self.wal.is_some() {
            self.checkpoint()?;
        }
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            if self.wal.is_none() {
                self.flush_shard(&mut shard, |_| ())?;
            }
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
        // The latest image of a log-resident page is the log's, not
        // the page file's. Either way the frame comes back clean: it
        // equals what the log (or the page file) already holds.
        if !self.copy_log_resident(id, &mut shard.frames[idx].data) {
            self.pager.read_page(id, &mut shard.frames[idx].data)?;
        }
        shard.frames[idx].page_id = id;
        shard.frames[idx].dirty = false;
        shard.map.insert(id, idx);
        shard.push_front(idx);
        Ok(idx)
    }

    /// Copies the log image of page `id` into `out` if it is
    /// log-resident (still a miss: counted as a physical read); `false`
    /// when its latest image is the page file's (or the pool has no
    /// WAL).
    fn copy_log_resident(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> bool {
        let Some(walm) = &self.wal else { return false };
        let ws = walm.lock();
        let Some(image) = ws.resident.get(&id) else {
            return false;
        };
        self.stats.record_physical_read();
        out.copy_from_slice(&image[..]);
        true
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
            match &self.wal {
                // Durable pools never steal a dirty page into the page
                // file: spill it to the WAL instead (un-synced — it
                // carries no durability promise until a commit record
                // follows it; the log image is what brings it back).
                Some(walm) => {
                    let mut ws = walm.lock();
                    let mut frame = Vec::new();
                    ws.stage(&mut frame, old_id, &shard.frames[victim].data);
                    ws.append(&mut frame, None)?;
                }
                None => self.pager.write_page(old_id, &shard.frames[victim].data)?,
            }
            shard.frames[victim].dirty = false;
        }
        Ok(victim)
    }
}

impl Drop for BufferPool {
    /// Closes the files without ever committing. A durable pool whose
    /// state is all committed checkpoints, so a cleanly closed database
    /// is left with an empty log. One dropped with dirty frames or
    /// unsynced spills — an ingest that failed half-way, a caller that
    /// never saved — leaves its files as a crash at this instant would:
    /// the next open replays the committed prefix of the log and
    /// discards the rest. A pool without a WAL is in memory and dies
    /// with its pages.
    fn drop(&mut self) {
        let Some(walm) = &self.wal else { return };
        if self.retired.load(Ordering::Acquire) {
            return;
        }
        let dirty = |shard: &Mutex<Shard>| shard.lock().frames.iter().any(|f| f.dirty);
        if self.shards.iter().any(dirty) {
            return;
        }
        let mut ws = walm.lock();
        if ws.wal.is_empty() || !ws.wal.is_fully_durable() {
            return;
        }
        // A failure here has no caller to report to, but it must not
        // vanish: count it (surfaced as `flush_errors` in /metrics) and
        // say so on stderr. The log still holds every commit.
        if let Err(e) = self.write_back(&mut ws) {
            self.stats.record_flush_error();
            eprintln!("prix-storage: checkpoint failed during drop: {e}");
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

    use crate::store::{MemStore, RawStore};

    /// A durable pool over in-memory stores, plus handles on its page
    /// file, sidecar and log.
    fn durable_stores(cap: usize) -> (BufferPool, [MemStore; 3]) {
        let stores = [MemStore::new(), MemStore::new(), MemStore::new()];
        let [db, sum, log] = stores.clone();
        let pager = Pager::create_durable(Box::new(db), Box::new(sum)).unwrap();
        let wal = Wal::create(Box::new(log), pager.epoch(), pager.stats()).unwrap();
        (BufferPool::with_wal(pager, cap, wal), stores)
    }

    fn durable_pool(cap: usize) -> (BufferPool, MemStore) {
        let (pool, [db, _, _]) = durable_stores(cap);
        (pool, db)
    }

    /// Reopens the bytes the stores hold right now — what a process
    /// killed at this instant would find — through recovery.
    fn reopen(stores: &[MemStore; 3], cap: usize) -> (BufferPool, crate::wal::RecoveryReport) {
        let [db, sum, log] = stores
            .clone()
            .map(|s| Box::new(MemStore::from_bytes(s.snapshot())));
        let pager = Pager::open_durable(db, sum).unwrap();
        let (wal, report) = crate::wal::recover(&pager, log, pager.stats()).unwrap();
        (BufferPool::with_wal(pager, cap, wal), report)
    }

    #[test]
    fn durable_pool_spills_evicted_dirty_pages_to_wal() {
        // Capacity 1 forces an eviction per access; the page file must
        // stay untouched until a checkpoint (no stealing), yet every
        // page reads back correctly via the WAL spill path.
        let (pool, db) = durable_pool(1);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 7).unwrap();
        let b = pool.allocate_page().unwrap(); // evicts a -> WAL spill
        pool.with_page_mut(b, |d| d[0] = 8).unwrap();
        let page_a_on_disk = db.snapshot()[a as usize * PAGE_SIZE];
        assert_eq!(page_a_on_disk, 0, "dirty page must not reach the page file");
        assert!(pool.snapshot().wal_appends >= 1);
        assert_eq!(pool.with_page(a, |d| d[0]).unwrap(), 7, "spill re-read");
        assert_eq!(pool.with_page(b, |d| d[0]).unwrap(), 8);
        pool.commit().unwrap();
        assert_eq!(pool.current_epoch(), 2);
        assert_eq!(
            db.snapshot()[a as usize * PAGE_SIZE],
            0,
            "commit is log-only"
        );
        assert_eq!(pool.with_page(a, |d| d[0]).unwrap(), 7, "log re-read");
        pool.checkpoint().unwrap();
        assert_eq!(db.snapshot()[a as usize * PAGE_SIZE], 7, "checkpointed");
        assert_eq!(db.snapshot()[b as usize * PAGE_SIZE], 8);
        assert_eq!(pool.pager().epoch(), 2);
    }

    #[test]
    fn durable_pool_many_pages_under_small_pool() {
        // The durable twin of `many_pages_under_small_pool`: spilling
        // must respect the residency budget, and a commit + cold
        // re-read round-trips every page with checksums verified.
        let (pool, _db) = durable_pool(3);
        let ids: Vec<_> = (0..50).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[0] = i as u8).unwrap();
        }
        assert!(pool.resident() <= 3);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |d| d[0]).unwrap(), i as u8, "cold");
        }
        pool.pager().verify_checksums().unwrap();
    }

    #[test]
    fn commit_fsync_budget_and_empty_commit_is_free() {
        let (pool, _db) = durable_pool(8);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[1] = 1).unwrap();
        let before = pool.snapshot();
        pool.commit().unwrap();
        let d = pool.snapshot().since(&before);
        assert_eq!(d.fsyncs, 1, "a commit is one WAL group sync");
        assert_eq!((d.wal_appends, d.physical_writes), (1, 0));
        let before = pool.snapshot();
        pool.commit().unwrap(); // nothing dirty
        assert_eq!(pool.snapshot().since(&before).fsyncs, 0);
        pool.checkpoint().unwrap();
        let d = pool.snapshot().since(&before);
        // Page file + sidecar + epoch advance + WAL truncation sync.
        assert_eq!(d.fsyncs, 4, "a checkpoint costs a fixed fsync budget");
        assert_eq!((d.physical_writes, d.checkpoints), (1, 1));
        assert_eq!((pool.wal_bytes(), pool.log_resident_pages()), (24, 0));
        let before = pool.snapshot();
        pool.checkpoint().unwrap(); // empty log
        pool.clear().unwrap();
        assert_eq!(pool.snapshot().since(&before).fsyncs, 0);
    }

    #[test]
    fn commits_accumulate_in_the_log_until_a_checkpoint() {
        let (pool, stores) = durable_stores(8);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        for round in 1..=3u8 {
            pool.with_page_mut(a, |d| d[0] = round).unwrap();
            pool.with_page_mut(b, |d| d[0] = 10 * round).unwrap();
            pool.commit().unwrap();
        }
        assert_eq!(pool.current_epoch(), 4);
        assert_eq!(pool.pager().epoch(), 1, "the page file has seen none");
        assert_eq!(pool.log_resident_pages(), 2, "six frames, two pages");
        assert_eq!(pool.snapshot().physical_writes, 0);
        // Killed here, all three commits replay.
        let (after, report) = reopen(&stores, 8);
        assert_eq!((report.replayed_frames, report.replayed_pages), (6, 2));
        assert_eq!(after.current_epoch(), 4);
        assert_eq!(after.with_page(a, |d| d[0]).unwrap(), 3);
        assert_eq!(after.with_page(b, |d| d[0]).unwrap(), 30);
        // The checkpoint writes each page once, whatever the log held.
        pool.checkpoint().unwrap();
        assert_eq!(pool.snapshot().physical_writes, 2);
        assert_eq!(pool.pager().epoch(), 4);
        let (after, report) = reopen(&stores, 8);
        assert!(!report.unclean_shutdown);
        assert_eq!(after.with_page(a, |d| d[0]).unwrap(), 3);
    }

    #[test]
    fn a_long_log_checkpoints_itself() {
        let (pool, _db) = durable_pool(64);
        let ids: Vec<_> = (0..32).map(|_| pool.allocate_page().unwrap()).collect();
        let before = pool.snapshot();
        let mut commits = 0u64;
        while pool.snapshot().checkpoints == 0 {
            assert!(pool.wal_bytes() < CHECKPOINT_LOG_BYTES, "no checkpoint");
            // Every byte of every page changes: whole-image frames.
            for &id in &ids {
                pool.with_page_mut(id, |d| d.fill(commits as u8 + 1))
                    .unwrap();
            }
            pool.commit().unwrap();
            commits += 1;
        }
        assert_eq!(pool.wal_bytes(), 24, "the checkpoint truncated the log");
        assert_eq!(pool.pager().epoch(), pool.current_epoch());
        let io = pool.snapshot().since(&before);
        assert!(io.wal_appended_bytes + 24 >= CHECKPOINT_LOG_BYTES);
        assert_eq!(io.wal_appends, commits * 32);
        assert_eq!(io.physical_writes, 32, "one write per distinct page");
        assert_eq!(io.fsyncs, commits + 4);
    }

    #[test]
    fn many_log_images_checkpoint_a_short_log() {
        // One byte a page: the log stays tiny, the images it implies
        // are 8 KiB each, and 1 024 of them are the same 8 MiB.
        let cap = (CHECKPOINT_LOG_BYTES as usize / PAGE_SIZE) * 2;
        let (pool, _db) = durable_pool(cap);
        for n in 1..cap / 2 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |d| d[n % PAGE_SIZE] = 1).unwrap();
            if n % 100 == 0 {
                pool.commit().unwrap();
            }
        }
        pool.commit().unwrap();
        assert_eq!(pool.snapshot().checkpoints, 0);
        assert_eq!(pool.log_resident_pages(), cap / 2 - 1);
        let id = pool.allocate_page().unwrap();
        pool.with_page_mut(id, |d| d[0] = 1).unwrap();
        pool.commit().unwrap();
        let io = pool.snapshot();
        assert_eq!(io.checkpoints, 1, "the image count reached its bound");
        assert!(io.wal_appended_bytes < CHECKPOINT_LOG_BYTES / 64);
        assert_eq!(io.physical_writes as usize, cap / 2);
        assert_eq!((pool.wal_bytes(), pool.log_resident_pages()), (24, 0));
    }

    #[test]
    fn unlogged_checkpoint_writes_no_frames() {
        // Pool of 4 under 12 pages: most of them spill before the
        // checkpoint, the rest are still dirty in the pool.
        let (pool, stores) = durable_stores(4);
        let ids: Vec<_> = (0..12).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[0] = i as u8 + 1).unwrap();
        }
        let before = pool.snapshot();
        assert!(before.wal_appends >= 8, "spills");
        pool.reseed_epoch(9);
        pool.checkpoint_unlogged().unwrap();
        let io = pool.snapshot().since(&before);
        assert_eq!(
            (io.wal_appends, io.physical_writes),
            (0, 12),
            "nothing logged"
        );
        assert_eq!(io.fsyncs, 4);
        assert_eq!((pool.wal_bytes(), pool.log_resident_pages()), (24, 0));
        assert_eq!((pool.pager().epoch(), pool.current_epoch()), (9, 9));
        let (after, report) = reopen(&stores, 4);
        assert!(!report.unclean_shutdown);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(after.with_page(id, |d| d[0]).unwrap(), i as u8 + 1);
        }
        after.pager().verify_checksums().unwrap();
    }

    #[test]
    fn clean_drop_leaves_an_empty_log_and_a_retired_pool_writes_nothing() {
        let (pool, stores) = durable_stores(8);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 5).unwrap();
        pool.commit().unwrap();
        drop(pool);
        assert_eq!(stores[2].len().unwrap(), 24, "header only");
        let (after, report) = reopen(&stores, 8);
        assert!(!report.unclean_shutdown);
        assert_eq!(after.with_page(a, |d| d[0]).unwrap(), 5);

        after.with_page_mut(a, |d| d[0] = 7).unwrap();
        after.commit().unwrap();
        let stats = after.pager().stats();
        let before = stats.snapshot();
        after.retire();
        drop(after);
        let d = stats.snapshot().since(&before);
        assert_eq!((d.physical_writes, d.fsyncs, d.flush_errors), (0, 0, 0));
    }

    /// `Drop` never commits: a pool dropped with a dirty frame, or with
    /// a dirty page spilled to the log but no commit record behind it,
    /// leaves its files as a crash would and reopens at its last
    /// commit.
    #[test]
    fn a_pool_dropped_with_uncommitted_state_reopens_at_its_last_commit() {
        for capacity in [8, 1] {
            let (pool, stores) = durable_stores(capacity);
            let a = pool.allocate_page().unwrap();
            let b = pool.allocate_page().unwrap();
            pool.with_page_mut(a, |d| d[0] = 5).unwrap();
            pool.commit().unwrap();
            let committed = stores.clone().map(|s| s.snapshot());
            let logged = pool.snapshot().wal_appends;
            pool.with_page_mut(a, |d| d[0] = 6).unwrap();
            // With one frame this evicts `a`: its image is in the log,
            // unsynced, and no frame of `a` is dirty any more.
            pool.with_page(b, |d| d[0]).unwrap();
            let spilled = pool.snapshot().wal_appends > logged;
            assert_eq!(spilled, capacity == 1);
            let stats = pool.pager().stats();
            let before = stats.snapshot();
            drop(pool);
            let d = stats.snapshot().since(&before);
            assert_eq!((d.physical_writes, d.fsyncs, d.checkpoints), (0, 0, 0));
            assert_eq!(stores[0].snapshot(), committed[0], "page file untouched");
            assert_eq!(stores[1].snapshot(), committed[1], "sidecar untouched");
            let (after, report) = reopen(&stores, 8);
            assert!(report.unclean_shutdown, "the log still holds the commit");
            assert_eq!(after.current_epoch(), 2);
            assert_eq!(after.with_page(a, |d| d[0]).unwrap(), 5, "last commit");
            after.pager().verify_checksums().unwrap();
        }
    }

    #[test]
    fn abort_after_spill_commits_the_restored_image() {
        // One frame: the aborted round's image of `a` is evicted into
        // the log, where the next commit record would commit it — the
        // restored pre-image must be logged after it.
        let (pool, stores) = durable_stores(1);
        let pool = Arc::new(pool);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 1).unwrap();
        pool.commit().unwrap();
        pool.begin_ingest();
        pool.with_page_mut(a, |d| d[0] = 99).unwrap();
        pool.with_page_mut(b, |d| d[0] = 98).unwrap(); // evicts a: spill
        pool.abort_ingest().unwrap();
        assert_eq!(pool.with_page(a, |d| d[0]).unwrap(), 1, "rolled back");
        let (after, _) = reopen(&stores, 4);
        assert_eq!(
            after.with_page(a, |d| d[0]).unwrap(),
            1,
            "spill not committed"
        );
        drop(after);
        pool.commit().unwrap();
        let (after, _) = reopen(&stores, 4);
        assert_eq!(
            after.with_page(a, |d| d[0]).unwrap(),
            1,
            "restored image wins"
        );
        assert_eq!(after.with_page(b, |d| d[0]).unwrap(), 0);
    }

    /// A [`MemStore`] that ticks a shared clock on every write-class
    /// call, so a model run can be "killed" at any write boundary.
    struct Tap {
        inner: MemStore,
        clock: Arc<KillClock>,
    }

    /// Counts the writes, truncations and syncs of a database's three
    /// stores and, just before the `kill_at`-th, keeps their bytes:
    /// what a process killed there leaves behind.
    struct KillClock {
        stores: [MemStore; 3],
        ops: AtomicU64,
        kill_at: u64,
        left_behind: Mutex<Option<[Vec<u8>; 3]>>,
    }

    impl Tap {
        fn tick(&self) {
            let c = &self.clock;
            if c.ops.fetch_add(1, Ordering::Relaxed) == c.kill_at {
                *c.left_behind.lock() = Some(c.stores.clone().map(|s| s.snapshot()));
            }
        }
    }

    impl RawStore for Tap {
        fn len(&self) -> Result<u64> {
            self.inner.len()
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.tick();
            self.inner.set_len(len)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
            self.tick();
            self.inner.write_at(offset, buf)
        }
        fn sync(&self) -> Result<()> {
            self.tick();
            self.inner.sync()
        }
    }

    /// A byte range of a page (reduced modulo the pages allocated so
    /// far) overwritten with one value.
    type Fill = (u64, usize, usize, u8);

    #[derive(Debug, PartialEq)]
    enum Step {
        Mutate(Fill),
        Allocate,
        Commit,
        /// An ingest round over existing pages: committed and
        /// published, or rolled back after its fills — five pages and
        /// more under a 4-frame pool, so some of them have spilled.
        Round {
            fills: Vec<Fill>,
            abort: bool,
        },
        Checkpoint,
        /// Whole pages of noise, committed over and over until the log
        /// reaches [`CHECKPOINT_LOG_BYTES`] and checkpoints itself.
        Fatten,
        /// One byte in each of 1 024 fresh pages, then a commit: a
        /// short log whose images reach the bound instead.
        Widen,
    }

    /// Page images shared between the live model and the copies each
    /// commit keeps of it.
    type Model = HashMap<PageId, Arc<[u8; PAGE_SIZE]>>;

    /// Runs `steps` on a durable 4-frame pool against a flat model
    /// until the write numbered `kill_at` has been reached, then
    /// reopens what the kill left behind (without one: what the stores
    /// hold at the end): it must be, byte for byte, the model as some
    /// commit of the interrupted step — or the last one before it —
    /// left it. Returns the writes the whole script issues.
    fn run_durable_model(steps: &[Step], kill_at: u64) -> std::result::Result<u64, String> {
        let stores = [MemStore::new(), MemStore::new(), MemStore::new()];
        let clock = Arc::new(KillClock {
            stores: stores.clone(),
            ops: AtomicU64::new(0),
            kill_at,
            left_behind: Mutex::new(None),
        });
        let [db, sum, log] = stores.clone().map(|inner| {
            let clock = Arc::clone(&clock);
            Box::new(Tap { inner, clock })
        });
        let pager = Pager::create_durable(db, sum).unwrap();
        let wal = Wal::create(log, pager.epoch(), pager.stats()).unwrap();
        let pool = BufferPool::with_wal(pager, 4, wal);
        // Set-up is not part of the script.
        clock.ops.store(0, Ordering::Relaxed);
        *clock.left_behind.lock() = None;

        let mut ids: Vec<PageId> = Vec::new();
        let mut model = Model::new();
        // The model as each commit of the current step left it, by
        // epoch, from the last commit before the step on.
        let mut commits = BTreeMap::from([(pool.current_epoch(), Model::new())]);
        let mut noise = 0x9E37_79B9_7F4A_7C15u64;

        let fill = |model: &mut Model, ids: &[PageId], (page, at, len, v): Fill, keep: bool| {
            let Some(&id) = ids.get((page % ids.len().max(1) as u64) as usize) else {
                return Ok(());
            };
            // A round that will be rolled back leaves the model alone
            // (and the page, until then, unlike it).
            let want = Arc::make_mut(model.get_mut(&id).expect("allocated"));
            let same = pool
                .with_page_mut(id, |d| {
                    let same = !keep || d[..] == want[..];
                    d[at..at + len].fill(v);
                    same
                })
                .unwrap();
            if keep {
                want[at..at + len].fill(v);
            }
            if same {
                Ok(())
            } else {
                Err(format!("page {id} read back different from its last write"))
            }
        };
        let allocate = |model: &mut Model, ids: &mut Vec<PageId>| {
            let id = pool.allocate_page().unwrap();
            ids.push(id);
            model.insert(id, Arc::new([0u8; PAGE_SIZE]));
            id
        };

        for step in steps {
            let last = *commits.keys().next_back().expect("never empty");
            commits = commits.split_off(&last);
            let io = pool.snapshot();
            let mut committed = |model: &Model| {
                commits.insert(pool.current_epoch(), model.clone());
            };
            match step {
                Step::Mutate(f) => fill(&mut model, &ids, *f, true)?,
                Step::Allocate => {
                    allocate(&mut model, &mut ids);
                }
                Step::Commit => {
                    pool.commit().unwrap();
                    committed(&model);
                }
                Step::Round { fills, abort } => {
                    pool.begin_ingest();
                    for f in fills {
                        fill(&mut model, &ids, *f, !abort)?;
                    }
                    if *abort {
                        pool.abort_ingest().unwrap();
                    } else {
                        pool.commit().unwrap();
                        committed(&model);
                        pool.publish_ingest();
                    }
                }
                Step::Checkpoint => {
                    pool.checkpoint().unwrap();
                    committed(&model);
                }
                Step::Fatten => {
                    if ids.is_empty() {
                        allocate(&mut model, &mut ids);
                    }
                    while pool.snapshot().checkpoints == io.checkpoints {
                        for &id in &ids {
                            let image = Arc::make_mut(model.get_mut(&id).expect("allocated"));
                            for word in image.chunks_exact_mut(8) {
                                noise = noise.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                                word.copy_from_slice(&noise.to_le_bytes());
                            }
                            pool.with_page_mut(id, |d| d.copy_from_slice(&image[..]))
                                .unwrap();
                        }
                        pool.commit().unwrap();
                        committed(&model);
                    }
                    let logged = pool.snapshot().since(&io).wal_appended_bytes;
                    if logged < CHECKPOINT_LOG_BYTES / 2 {
                        return Err(format!("checkpoint after only {logged} log bytes"));
                    }
                }
                Step::Widen => {
                    for n in 0..CHECKPOINT_LOG_BYTES as usize / PAGE_SIZE {
                        let id = allocate(&mut model, &mut ids);
                        pool.with_page_mut(id, |d| d[n % PAGE_SIZE] = 1).unwrap();
                        Arc::make_mut(model.get_mut(&id).expect("allocated"))[n % PAGE_SIZE] = 1;
                    }
                    pool.commit().unwrap();
                    committed(&model);
                    let d = pool.snapshot().since(&io);
                    if d.checkpoints == 0 || d.wal_appended_bytes > CHECKPOINT_LOG_BYTES / 8 {
                        return Err(format!(
                            "{} checkpoint(s) over {} log bytes and {} images",
                            d.checkpoints,
                            d.wal_appended_bytes,
                            pool.log_resident_pages()
                        ));
                    }
                }
            }
            if clock.left_behind.lock().is_some() {
                break;
            }
        }

        let left_behind = clock.left_behind.lock().take();
        let bytes = left_behind.unwrap_or_else(|| stores.clone().map(|s| s.snapshot()));
        let (after, _) = reopen(&bytes.map(MemStore::from_bytes), 4);
        let epoch = after.current_epoch();
        let want = commits
            .get(&epoch)
            .ok_or_else(|| format!("reopened at epoch {epoch}, not one of {:?}", commits.keys()))?;
        for (&id, image) in want {
            if !after.with_page(id, |d| d[..] == image[..]).unwrap() {
                return Err(format!("page {id} is not what epoch {epoch} committed"));
            }
        }
        after
            .pager()
            .verify_checksums()
            .map_err(|e| e.to_string())?;
        Ok(clock.ops.load(Ordering::Relaxed))
    }

    /// The durable protocol against a flat map, killed anywhere:
    /// byte-range mutations, allocations, commits, ingest rounds kept
    /// and rolled back, spills from a 4-frame pool, checkpoints asked
    /// for and self-triggered by log length and by image count.
    #[test]
    fn durable_pool_reopens_at_a_commit_from_any_write_boundary() {
        use prix_testkit::{check, from_fn, Config, TestRng};
        let fill = |rng: &mut TestRng| -> Fill {
            let at = rng.below(PAGE_SIZE as u64) as usize;
            let len = (rng.below(600) as usize).min(PAGE_SIZE - at);
            (rng.next_u64(), at, len, rng.below(256) as u8)
        };
        let scripts = from_fn(|rng| {
            let mut steps: Vec<Step> = (0..rng.range(1, 60))
                .map(|_| match rng.below(16) {
                    0..=6 => Step::Mutate(fill(rng)),
                    7..=9 => Step::Allocate,
                    10..=12 => Step::Commit,
                    13..=14 => Step::Round {
                        fills: (0..rng.range(5, 12)).map(|_| fill(rng)).collect(),
                        abort: rng.chance(0.5),
                    },
                    _ => Step::Checkpoint,
                })
                .collect();
            for (odds, step) in [(0.05, Step::Fatten), (0.05, Step::Widen)] {
                if rng.chance(odds) {
                    steps.insert(rng.below(steps.len() as u64 + 1) as usize, step);
                }
            }
            (steps, rng.next_u64())
        });
        let (fat, wide) = (Cell::new(0), Cell::new(0));
        check(
            "durable_pool_reopens_at_a_commit_from_any_write_boundary",
            &Config::cases(64),
            &scripts,
            |(steps, kill)| {
                let count = |step: &Step| steps.iter().filter(|s| **s == *step).count();
                fat.set(fat.get() + count(&Step::Fatten));
                wide.set(wide.get() + count(&Step::Widen));
                // Once to the end, to learn how many writes there are
                // to be killed at; then killed at one of them.
                let writes = run_durable_model(steps, u64::MAX)?;
                run_durable_model(steps, kill % writes.max(1)).map(|_| ())
            },
        );
        assert!(fat.get() > 0 && wide.get() > 0, "no script reached a bound");
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
        pool.publish_ingest();
        let pin1 = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 12).unwrap();
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
        assert_eq!(pool.publish_ingest(), 1);
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 6);
    }

    #[test]
    fn durable_publish_tracks_committed_epoch() {
        let (pool, _db) = durable_pool(8);
        let pool = Arc::new(pool);
        assert_eq!(pool.published_epoch(), pool.pager().epoch());
        let p = pool.allocate_page().unwrap();
        pool.with_page_mut(p, |d| d[0] = 3).unwrap();
        let pin = pool.pin_epoch();
        pool.begin_ingest();
        pool.with_page_mut(p, |d| d[0] = 4).unwrap();
        pool.commit().unwrap();
        // Between the commit barrier and publish, the published epoch
        // lags the committed one — readers keep the old pin target.
        assert_eq!(pool.current_epoch(), pool.published_epoch() + 1);
        let published = pool.publish_ingest();
        assert_eq!(published, pool.pager().epoch() + 1, "no checkpoint yet");
        let _g = pin.guard();
        assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 3, "pinned view");
        assert_eq!(pool.current_epoch(), published);
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
