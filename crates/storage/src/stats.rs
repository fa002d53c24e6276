//! I/O accounting.
//!
//! The paper reports query cost as "Disk IO (pages read from disk)" under
//! direct I/O (§6.1). [`IoStats`] counts exactly that: a *physical read*
//! is a page fetched from the pager because it was not resident in the
//! buffer pool.
//!
//! The counters are declared once, in the `io_counters!` list below:
//! the atomics, their recorders, [`IoSnapshot`] and its arithmetic are
//! all generated from it.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the I/O counters: per entry the doc text, the
/// [`IoSnapshot`] field (and `IoStats` atomic) name, the recorder —
/// `name()` counts one event, `name(n)` adds an amount — and whether
/// an [`IoScope`] attributes the event to the recording thread's query
/// (`true`) or it is durability cost that no query pays (`false`).
macro_rules! io_counters {
    ($($(#[$doc:meta])* $field:ident, $record:ident($($by:ident)?), $scoped:literal;)*) => {
        /// Shared, thread-safe I/O counters. One instance is attached to
        /// each [`crate::Pager`] and observed through its
        /// [`crate::BufferPool`]. The counters are plain atomics, so
        /// they stay exact when the sharded buffer pool serves page
        /// requests from many threads at once — recording is one
        /// relaxed `fetch_add`, no lock.
        #[derive(Debug, Default)]
        pub struct IoStats {
            $($field: AtomicU64,)*
        }

        impl IoStats {
            $(
                #[doc = concat!("Counts into [`IoSnapshot::", stringify!($field), "`]: one event, or the amount passed.")]
                #[inline]
                pub fn $record(&self $(, $by: u64)?) {
                    let by = 1u64 $(* $by)?;
                    self.$field.fetch_add(by, Ordering::Relaxed);
                    if $scoped {
                        scope_record(|tally| tally.$field += by);
                    }
                }
            )*

            /// Snapshot of all counters.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot { $($field: self.$field.load(Ordering::Relaxed),)* }
            }

            /// Resets all counters to zero.
            pub fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)*
            }
        }

        /// A point-in-time copy of [`IoStats`]. Subtract two snapshots
        /// to get per-query costs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct IoSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl IoSnapshot {
            const ZERO: IoSnapshot = IoSnapshot { $($field: 0,)* };

            /// Counter deltas since `earlier`.
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot { $($field: self.$field - earlier.$field,)* }
            }

            /// Counter sums (an ended scope folding into its parent).
            fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
                IoSnapshot { $($field: self.$field + other.$field,)* }
            }
        }

        /// Every declared counter: name, recorder (of one event, or
        /// of amount 1), snapshot reader, and whether scopes tally it.
        #[cfg(test)]
        #[allow(clippy::type_complexity)]
        const COUNTERS: &[(&str, fn(&IoStats), fn(&IoSnapshot) -> u64, bool)] = &[
            $((
                stringify!($field),
                |s| {
                    $(let $by = 1;)?
                    s.$record($($by)?)
                },
                |s| s.$field,
                $scoped,
            ),)*
        ];
    };
}

io_counters! {
    /// Pages requested from the buffer pool (hits and misses).
    logical_reads, record_logical_read(), true;
    /// Pages read from the backing store — the paper's "Disk IO"
    /// metric.
    physical_reads, record_physical_read(), true;
    /// Pages written to the backing store.
    physical_writes, record_physical_write(), true;
    /// `fsync` calls against the batch log: one per commit, and one
    /// for the header of each log a compaction or bulk build starts.
    fsyncs, record_fsync(), false;
    /// Records appended to the batch log: one per commit.
    wal_appends, record_wal_appends(records), false;
    /// Bytes appended to the batch log: the batches as received plus
    /// their framing.
    wal_appended_bytes, record_wal_appended_bytes(bytes), false;
    /// Segment blocks requested through per-segment caches (hits and
    /// misses). Segments bypass the buffer pool, so their reads get
    /// their own counters.
    seg_block_reads, record_seg_block_read(), true;
    /// Segment blocks fetched from disk (per-segment cache misses —
    /// the segment analogue of a physical page read).
    seg_block_fetches, record_seg_block_fetch(), true;
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IoSnapshot {
    /// Buffer-pool hit ratio in `[0, 1]`; `1.0` when nothing was read.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            return 1.0;
        }
        1.0 - (self.physical_reads as f64 / self.logical_reads as f64)
    }
}

// Per-thread scoped accounting. Each query executes on exactly one
// thread, so a thread-local tally between `IoScope::begin` and
// `IoScope::end` attributes page accesses to that query exactly, even
// while other worker threads hammer the same shared pool counters.
struct ScopeState {
    /// The innermost open scope's tally.
    cur: IoSnapshot,
    /// The enclosing scopes' tallies, outermost first; one entry per
    /// open scope.
    saved: Vec<IoSnapshot>,
}

thread_local! {
    static SCOPE: RefCell<ScopeState> = const {
        RefCell::new(ScopeState {
            cur: IoSnapshot::ZERO,
            saved: Vec::new(),
        })
    };
}

#[inline]
fn scope_record(bump: impl FnOnce(&mut IoSnapshot)) {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.saved.is_empty() {
            bump(&mut s.cur);
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
/// Durability counters (fsyncs, log appends) are not tallied: queries
/// never sync.
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
            let outer = std::mem::take(&mut s.cur);
            s.saved.push(outer);
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
            s.cur = s.saved.pop().unwrap_or_default().plus(&delta);
            delta
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Records counter `i` of `COUNTERS` `i + 1` times, so every
    /// counter ends at a distinct non-zero value.
    fn record_all(s: &IoStats) {
        for (i, (_, record, _, _)) in COUNTERS.iter().enumerate() {
            for _ in 0..=i {
                record(s);
            }
        }
    }

    #[test]
    fn every_counter_accumulates_snapshots_and_resets() {
        assert_eq!(COUNTERS.len(), 8, "a counter was added or removed");
        let s = IoStats::new();
        record_all(&s);
        let snap = s.snapshot();
        for (i, (name, _, read, _)) in COUNTERS.iter().enumerate() {
            assert_eq!(read(&snap), i as u64 + 1, "{name}");
        }
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_subtracts_every_counter() {
        let s = IoStats::new();
        record_all(&s);
        let a = s.snapshot();
        record_all(&s);
        s.record_logical_read();
        let d = s.snapshot().since(&a);
        for (i, (name, _, read, _)) in COUNTERS.iter().enumerate() {
            let extra = u64::from(*name == "logical_reads");
            assert_eq!(read(&d), i as u64 + 1 + extra, "{name}");
        }
        assert_eq!(a.since(&a), IoSnapshot::default());
    }

    #[test]
    fn scope_tallies_every_scoped_counter_and_no_durability_counter() {
        let s = IoStats::new();
        let scope = IoScope::begin();
        record_all(&s);
        // Another thread's traffic hits shared counters but must not
        // leak into this thread's scope.
        let other = std::thread::spawn(|| record_all(&IoStats::new()));
        other.join().unwrap();
        let d = scope.end();
        for (i, (name, _, read, scoped)) in COUNTERS.iter().enumerate() {
            let expect = if *scoped { i as u64 + 1 } else { 0 };
            assert_eq!(read(&d), expect, "{name}");
        }
        let scoped: Vec<&str> = COUNTERS.iter().filter(|c| c.3).map(|c| c.0).collect();
        assert_eq!(
            scoped,
            [
                "logical_reads",
                "physical_reads",
                "physical_writes",
                "seg_block_reads",
                "seg_block_fetches"
            ]
        );
        // Outside a scope nothing is tallied, and the next scope starts
        // from zero.
        record_all(&s);
        assert_eq!(IoScope::begin().end(), IoSnapshot::default());
    }

    #[test]
    fn scopes_nest_and_fold_every_counter_into_the_outer() {
        let s = IoStats::new();
        let outer = IoScope::begin();
        record_all(&s);
        let inner = IoScope::begin();
        record_all(&s);
        let di = inner.end();
        {
            let _dropped = IoScope::begin();
            record_all(&s);
            // dropped without end(): the tally still folds into outer
        }
        record_all(&s);
        let d = outer.end();
        for (i, (name, _, read, scoped)) in COUNTERS.iter().enumerate() {
            let once = if *scoped { i as u64 + 1 } else { 0 };
            assert_eq!(read(&di), once, "inner {name}");
            assert_eq!(read(&d), 4 * once, "outer {name}");
        }
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
