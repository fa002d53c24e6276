//! Epoch-keyed query caches: the plan cache and the result cache.
//!
//! PR 6's snapshot isolation gives every committed ingest a published
//! *epoch*, and a query's answer is a pure function of
//! `(query text, options, epoch)`. That makes the epoch a free
//! cache-invalidation token: a result cached under one epoch is
//! bit-identical to a live evaluation until the next ingest publishes,
//! at which point its key simply never matches again. Two caches
//! exploit this:
//!
//! * [`PlanCache`] — XPath string → parsed [`TwigQuery`] (the label
//!   path sequence plus twig structure the executor plans from).
//!   Parsing is pure w.r.t. the symbol table, and the table is
//!   append-only, so a plan stays valid until the table *grows*; each
//!   entry remembers the table length it was parsed at and is lazily
//!   re-parsed when an ingest interned new labels.
//! * [`ResultCache`] — `(normalized query, options, epoch)` → the full
//!   serialized JSON response body. Hits return the exact bytes of the
//!   first evaluation; an epoch advance orphans every older entry, and
//!   [`ResultCache::purge_older_than`] (driven by the engine's publish
//!   hook) reclaims them eagerly so capacity is never squatted by dead
//!   epochs.
//!
//! Both caches are sharded (hash of the key picks a mutex-protected
//! [`Lru`] shard) so concurrent workers rarely contend, and both keep
//! lifetime hit/miss/eviction counters for `/metrics`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prix_core::TwigQuery;
use prix_storage::Lru;

/// Shards per cache. Power of two; the low bits of the key hash pick
/// the shard. Sixteen keeps contention negligible at the worker-pool
/// sizes the server runs (≤ 16 threads) without bloating tiny caches.
const SHARDS: usize = 16;

/// Lifetime counters every cache keeps; `/metrics` renders them as
/// `prix_cache_{hits,misses,evictions}_total{cache="..."}`.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of one cache's counters plus its current size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a live evaluation.
    pub misses: u64,
    /// Entries removed by LRU pressure or epoch purges.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheSnapshot {
    /// Lifetime hit ratio in `[0, 1]`; 1.0 when idle (no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Counters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn evicted(&self, n: u64) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self, entries: u64) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

/// A parsed plan pinned to the symbol-table length it was parsed at.
struct CachedPlan {
    syms_len: usize,
    query: TwigQuery,
}

/// XPath string → parsed [`TwigQuery`], invalidated only by
/// symbol-table growth.
///
/// The symbol table is append-only: two tables of equal length are
/// byte-identical, so a plan parsed at length `L` is exact for every
/// snapshot whose table still has length `L`. When an ingest interns
/// new labels the length moves and the entry lazily re-parses — an
/// XPath naming a label the old table lacked must now resolve to the
/// real symbol instead of a match-nothing scratch overlay.
pub struct PlanCache {
    shards: Vec<Mutex<Lru<String, CachedPlan>>>,
    counters: Counters,
}

impl PlanCache {
    /// A plan cache holding up to `capacity` parsed queries.
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        PlanCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            counters: Counters::default(),
        }
    }

    /// The cached plan for `xpath`, if one was parsed at exactly
    /// `syms_len` interned symbols.
    pub fn get(&self, xpath: &str, syms_len: usize) -> Option<TwigQuery> {
        let key = xpath.to_string();
        let mut shard = self.shards[shard_of(&key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get(&key) {
            Some(plan) if plan.syms_len == syms_len => {
                let q = plan.query.clone();
                self.counters.hit();
                Some(q)
            }
            _ => {
                self.counters.miss();
                None
            }
        }
    }

    /// Stores the plan parsed for `xpath` at `syms_len` symbols.
    pub fn insert(&self, xpath: &str, syms_len: usize, query: TwigQuery) {
        let key = xpath.to_string();
        let mut shard = self.shards[shard_of(&key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let evicted = shard.insert(key, CachedPlan { syms_len, query });
        self.counters.evicted(evicted);
    }

    /// Counters + current size for `/metrics`.
    pub fn snapshot(&self) -> CacheSnapshot {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum();
        self.counters.snapshot(entries as u64)
    }
}

/// What identifies one cacheable result: the normalized query text,
/// the execution options that change the answer, and the epoch it was
/// evaluated at.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Whitespace-trimmed query text (one XPath for `/query`, the
    /// normalized line list for `/batch`).
    pub query: String,
    /// Unordered (§5.7 arrangements) vs ordered matching.
    pub unordered: bool,
    /// Effective match limit; `u64::MAX` encodes "unlimited".
    pub limit: u64,
    /// The snapshot epoch the result was computed at.
    pub epoch: u64,
    /// Always empty: the server answers every query by §5.6's rule.
    /// The field stays only because the benchmark constructs keys with
    /// it; it goes with the benchmark's next change (ROADMAP item 1).
    pub engine: String,
}

/// Sharded LRU of serialized `200` response bodies keyed by
/// [`ResultKey`]. Capacity 0 disables the cache entirely (every call
/// is a no-op that records nothing).
pub struct ResultCache {
    shards: Vec<Mutex<Lru<ResultKey, Arc<str>>>>,
    counters: Counters,
    enabled: bool,
}

impl ResultCache {
    /// A result cache holding up to `capacity` responses; 0 disables.
    pub fn new(capacity: usize) -> Self {
        let enabled = capacity > 0;
        let per_shard = (capacity / SHARDS).max(1);
        ResultCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            counters: Counters::default(),
            enabled,
        }
    }

    /// Whether a capacity was configured.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cached body for `key`, counting a hit or miss.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<str>> {
        if !self.enabled {
            return None;
        }
        let mut shard = self.shards[shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get(key) {
            Some(body) => {
                let body = Arc::clone(body);
                self.counters.hit();
                Some(body)
            }
            None => {
                self.counters.miss();
                None
            }
        }
    }

    /// Stores a freshly evaluated body under `key`.
    pub fn insert(&self, key: ResultKey, body: Arc<str>) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[shard_of(&key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let evicted = shard.insert(key, body);
        self.counters.evicted(evicted);
    }

    /// Drops every entry from an epoch older than `epoch`. Driven by
    /// the engine's publish hook, so stale results die the moment a new
    /// epoch becomes visible instead of lingering until LRU pressure.
    pub fn purge_older_than(&self, epoch: u64) {
        if !self.enabled {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let removed = shard.retain(|k| k.epoch >= epoch);
            self.counters.evicted(removed);
        }
    }

    /// Counters + current size for `/metrics`.
    pub fn snapshot(&self) -> CacheSnapshot {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum();
        self.counters.snapshot(entries as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str, epoch: u64) -> ResultKey {
        ResultKey {
            query: q.to_string(),
            unordered: false,
            limit: 1000,
            epoch,
            engine: String::new(),
        }
    }

    #[test]
    fn result_cache_hits_misses_and_epoch_purge() {
        let cache = ResultCache::new(64);
        assert!(cache.is_enabled());
        assert!(cache.get(&key("//a", 1)).is_none());
        cache.insert(key("//a", 1), Arc::from("body-a"));
        cache.insert(key("//b", 1), Arc::from("body-b"));
        assert_eq!(cache.get(&key("//a", 1)).as_deref(), Some("body-a"));
        // Same query at a newer epoch is a different key.
        assert!(cache.get(&key("//a", 2)).is_none());
        cache.insert(key("//a", 2), Arc::from("body-a2"));

        // Two misses so far: the cold //a@1 probe and the //a@2 probe.
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.entries), (1, 2, 3));

        // Publishing epoch 2 reclaims both epoch-1 entries.
        cache.purge_older_than(2);
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.evictions, 2);
        assert_eq!(cache.get(&key("//a", 2)).as_deref(), Some("body-a2"));
        assert!(cache.get(&key("//b", 1)).is_none());
    }

    #[test]
    fn disabled_result_cache_is_inert() {
        let cache = ResultCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(key("//a", 1), Arc::from("x"));
        assert!(cache.get(&key("//a", 1)).is_none());
        cache.purge_older_than(9);
        let snap = cache.snapshot();
        assert_eq!(snap, CacheSnapshot::default());
        assert_eq!(snap.hit_ratio(), 1.0);
    }

    #[test]
    fn hit_ratio_counts_only_real_lookups() {
        let cache = ResultCache::new(4);
        cache.insert(key("//a", 1), Arc::from("x"));
        for _ in 0..9 {
            assert!(cache.get(&key("//a", 1)).is_some());
        }
        assert!(cache.get(&key("//z", 1)).is_none());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (9, 1));
        assert!((snap.hit_ratio() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn plan_cache_invalidates_on_symbol_table_growth() {
        use prix_xml::{ScratchSyms, SymbolTable};

        let mut syms = SymbolTable::new();
        syms.intern("a");
        syms.intern("b");
        let cache = PlanCache::new(32);
        let parse = |syms: &SymbolTable, xp: &str| {
            let mut scratch = ScratchSyms::new(syms);
            prix_core::parse_xpath(xp, &mut scratch).unwrap()
        };

        assert!(cache.get("/a/b", syms.len()).is_none());
        cache.insert("/a/b", syms.len(), parse(&syms, "/a/b"));
        let hit = cache.get("/a/b", syms.len()).expect("cached plan");
        assert_eq!(format!("{hit:?}"), format!("{:?}", parse(&syms, "/a/b")));

        // Growth: the same XPath at the longer table is a miss until
        // re-inserted — `c` might now be a real label.
        syms.intern("c");
        assert!(cache.get("/a/b", syms.len()).is_none());
        cache.insert("/a/b", syms.len(), parse(&syms, "/a/b"));
        assert!(cache.get("/a/b", syms.len()).is_some());

        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (2, 2));
    }
}
