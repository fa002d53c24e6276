//! I/O accounting.
//!
//! The paper reports query cost as "Disk IO (pages read from disk)" under
//! direct I/O (§6.1). [`IoStats`] counts exactly that: a *physical read*
//! is a page fetched from the pager because it was not resident in the
//! buffer pool.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

// Per-thread scoped accounting. Each query executes on exactly one
// thread, so a thread-local tally between `IoScope::begin` and
// `IoScope::end` attributes page accesses to that query exactly, even
// while other worker threads hammer the same shared pool counters.
struct ScopeState {
    depth: u32,
    cur: [u64; 5],
    saved: Vec<[u64; 5]>,
}

thread_local! {
    static SCOPE: RefCell<ScopeState> = const {
        RefCell::new(ScopeState {
            depth: 0,
            cur: [0; 5],
            saved: Vec::new(),
        })
    };
}

#[inline]
fn scope_record(slot: usize) {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth > 0 {
            s.cur[slot] += 1;
        }
    });
}

/// Scoped, per-thread I/O attribution.
///
/// [`IoSnapshot::since`] over the shared pool counters is only exact
/// when a single query runs at a time: under `query_batch` every worker
/// bumps the same atomics, so a before/after delta silently includes
/// other queries' pages. `IoScope` fixes attribution by tallying the
/// accesses made *by the current thread* between `begin` and `end`.
///
/// Scopes nest: an inner scope's accesses are folded back into the
/// enclosing scope when it ends, so wrapping a sub-operation does not
/// make its pages disappear from the outer tally. The guard is `!Send`
/// — a scope must end on the thread that began it.
#[must_use = "an IoScope tallies nothing unless it is ended"]
#[derive(Debug)]
pub struct IoScope {
    ended: bool,
    _not_send: PhantomData<*const ()>,
}

impl IoScope {
    /// Starts tallying this thread's page accesses.
    pub fn begin() -> Self {
        SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            let cur = s.cur;
            s.saved.push(cur);
            s.cur = [0; 5];
            s.depth += 1;
        });
        IoScope {
            ended: false,
            _not_send: PhantomData,
        }
    }

    /// Ends the scope and returns the accesses made by this thread
    /// since [`IoScope::begin`]. The tally is folded into the enclosing
    /// scope, if any.
    pub fn end(mut self) -> IoSnapshot {
        self.ended = true;
        Self::close()
    }

    fn close() -> IoSnapshot {
        SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            let delta = s.cur;
            let saved = s.saved.pop().unwrap_or([0; 5]);
            for (acc, d) in s.cur.iter_mut().zip(saved.iter().zip(&delta)) {
                *acc = d.0 + d.1;
            }
            s.depth = s.depth.saturating_sub(1);
            IoSnapshot {
                logical_reads: delta[0],
                physical_reads: delta[1],
                physical_writes: delta[2],
                seg_block_reads: delta[3],
                seg_block_fetches: delta[4],
                ..IoSnapshot::default()
            }
        })
    }
}

impl Drop for IoScope {
    fn drop(&mut self) {
        if !self.ended {
            let _ = Self::close();
        }
    }
}

/// Shared, thread-safe I/O counters. One instance is attached to each
/// [`crate::Pager`] and observed through its [`crate::BufferPool`].
/// The counters are plain atomics, so they stay exact when the sharded
/// buffer pool serves page requests from many threads at once — no lock
/// is held while recording.
#[derive(Debug, Default)]
pub struct IoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    fsyncs: AtomicU64,
    wal_appends: AtomicU64,
    checkpoints: AtomicU64,
    flush_errors: AtomicU64,
    seg_block_reads: AtomicU64,
    seg_block_fetches: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a buffer-pool page request (hit or miss).
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        scope_record(0);
    }

    /// Records a page fetched from the backing store.
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        scope_record(1);
    }

    /// Records a page written back to the backing store.
    #[inline]
    pub fn record_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
        scope_record(2);
    }

    /// Pages requested from the buffer pool.
    pub fn logical_reads(&self) -> u64 {
        self.logical_reads.load(Ordering::Relaxed)
    }

    /// Pages read from the backing store — the paper's "Disk IO" metric.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Pages written to the backing store.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Records a segment block request (cache hit or miss). Segments
    /// bypass the buffer pool, so their reads get their own series.
    #[inline]
    pub fn record_seg_block_read(&self) {
        self.seg_block_reads.fetch_add(1, Ordering::Relaxed);
        scope_record(3);
    }

    /// Records a segment block actually fetched from its backing store
    /// (a per-segment cache miss — the segment analogue of a physical
    /// page read).
    #[inline]
    pub fn record_seg_block_fetch(&self) {
        self.seg_block_fetches.fetch_add(1, Ordering::Relaxed);
        scope_record(4);
    }

    /// Segment blocks requested (hits + misses).
    pub fn seg_block_reads(&self) -> u64 {
        self.seg_block_reads.load(Ordering::Relaxed)
    }

    /// Segment blocks fetched from disk.
    pub fn seg_block_fetches(&self) -> u64 {
        self.seg_block_fetches.load(Ordering::Relaxed)
    }

    /// Records one `fsync` of a backing store (database, checksum
    /// sidecar, or write-ahead log). Durability cost, not query cost:
    /// fsyncs are not attributed to [`IoScope`]s.
    #[inline]
    pub fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one page image appended to the write-ahead log (a
    /// commit frame or an eviction spill).
    #[inline]
    pub fn record_wal_append(&self) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed checkpoint (log-resident pages written to
    /// the page file, log truncated).
    #[inline]
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a flush failure that could not be propagated (the
    /// buffer pool's `Drop` has no caller to return an error to).
    #[inline]
    pub fn record_flush_error(&self) {
        self.flush_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// `fsync` calls issued against any backing store.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Page images appended to the write-ahead log.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Checkpoints completed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Flush failures swallowed by `Drop` (should stay 0).
    pub fn flush_errors(&self) -> u64 {
        self.flush_errors.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads(),
            physical_reads: self.physical_reads(),
            physical_writes: self.physical_writes(),
            fsyncs: self.fsyncs(),
            wal_appends: self.wal_appends(),
            checkpoints: self.checkpoints(),
            flush_errors: self.flush_errors(),
            seg_block_reads: self.seg_block_reads(),
            seg_block_fetches: self.seg_block_fetches(),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.checkpoints.store(0, Ordering::Relaxed);
        self.flush_errors.store(0, Ordering::Relaxed);
        self.seg_block_reads.store(0, Ordering::Relaxed);
        self.seg_block_fetches.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`]. Subtract two snapshots to get
/// per-query costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages requested from the buffer pool.
    pub logical_reads: u64,
    /// Pages read from the backing store.
    pub physical_reads: u64,
    /// Pages written to the backing store.
    pub physical_writes: u64,
    /// `fsync` calls against any backing store. Always 0 in
    /// [`IoScope`]-attributed snapshots: queries never sync.
    pub fsyncs: u64,
    /// Page images appended to the write-ahead log.
    pub wal_appends: u64,
    /// Checkpoints completed (page file brought up to date, log
    /// truncated).
    pub checkpoints: u64,
    /// Flush failures swallowed by `BufferPool::drop`.
    pub flush_errors: u64,
    /// Segment blocks requested through per-segment caches (logical).
    pub seg_block_reads: u64,
    /// Segment blocks fetched from disk (per-segment cache misses).
    pub seg_block_fetches: u64,
}

impl IoSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            wal_appends: self.wal_appends - earlier.wal_appends,
            checkpoints: self.checkpoints - earlier.checkpoints,
            flush_errors: self.flush_errors - earlier.flush_errors,
            seg_block_reads: self.seg_block_reads - earlier.seg_block_reads,
            seg_block_fetches: self.seg_block_fetches - earlier.seg_block_fetches,
        }
    }

    /// Buffer-pool hit ratio in `[0, 1]`; `1.0` when nothing was read.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            return 1.0;
        }
        1.0 - (self.physical_reads as f64 / self.logical_reads as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_logical_read();
        s.record_logical_read();
        s.record_physical_read();
        s.record_physical_write();
        s.record_fsync();
        s.record_fsync();
        s.record_fsync();
        s.record_wal_append();
        s.record_checkpoint();
        s.record_flush_error();
        assert_eq!(s.logical_reads(), 2);
        assert_eq!(s.physical_reads(), 1);
        assert_eq!(s.physical_writes(), 1);
        assert_eq!(s.fsyncs(), 3);
        assert_eq!(s.wal_appends(), 1);
        assert_eq!(s.checkpoints(), 1);
        assert_eq!(s.flush_errors(), 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_logical_read();
        let a = s.snapshot();
        s.record_logical_read();
        s.record_physical_read();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.logical_reads, 1);
        assert_eq!(d.physical_reads, 1);
    }

    #[test]
    fn scope_attributes_only_this_threads_accesses() {
        let s = IoStats::new();
        let scope = IoScope::begin();
        s.record_logical_read();
        s.record_physical_read();
        // Another thread's traffic hits the shared counters but must
        // not leak into this thread's scope.
        let other = std::thread::spawn(|| {
            let s2 = IoStats::new();
            s2.record_logical_read();
            s2.record_logical_read();
        });
        other.join().unwrap();
        let d = scope.end();
        assert_eq!(d.logical_reads, 1);
        assert_eq!(d.physical_reads, 1);
        assert_eq!(d.physical_writes, 0);
    }

    #[test]
    fn scopes_nest_and_fold_into_outer() {
        let s = IoStats::new();
        let outer = IoScope::begin();
        s.record_logical_read();
        let inner = IoScope::begin();
        s.record_logical_read();
        s.record_physical_write();
        let di = inner.end();
        assert_eq!(di.logical_reads, 1);
        assert_eq!(di.physical_writes, 1);
        s.record_logical_read();
        let d = outer.end();
        // Outer sees its own accesses plus the inner scope's.
        assert_eq!(d.logical_reads, 3);
        assert_eq!(d.physical_writes, 1);
    }

    #[test]
    fn dropped_scope_restores_enclosing_tally() {
        let s = IoStats::new();
        let outer = IoScope::begin();
        {
            let _inner = IoScope::begin();
            s.record_logical_read();
            // dropped without end(): tally still folds into outer
        }
        s.record_logical_read();
        assert_eq!(outer.end().logical_reads, 2);
    }

    #[test]
    fn segment_counters_are_scoped_like_page_counters() {
        let s = IoStats::new();
        let scope = IoScope::begin();
        s.record_seg_block_read();
        s.record_seg_block_read();
        s.record_seg_block_fetch();
        let d = scope.end();
        assert_eq!(d.seg_block_reads, 2);
        assert_eq!(d.seg_block_fetches, 1);
        assert_eq!(s.seg_block_reads(), 2);
        assert_eq!(s.seg_block_fetches(), 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn hit_ratio() {
        let snap = IoSnapshot {
            logical_reads: 10,
            physical_reads: 2,
            ..IoSnapshot::default()
        };
        assert!((snap.hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(IoSnapshot::default().hit_ratio(), 1.0);
    }
}
