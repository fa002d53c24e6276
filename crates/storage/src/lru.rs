//! The one LRU policy of the workspace: a doubly-linked list over a
//! slab, O(1) for every operation. The buffer pool's shards, every
//! tier's block cache (one for the tier's RP, EP and value-run files,
//! keyed by file slot and block) and the server's plan and result
//! caches each keep one; what an entry holds and how it is locked is
//! theirs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// `None` sentinel for the intrusive links.
const NIL: usize = usize::MAX;

/// At most `capacity` entries; admitting one more evicts the least
/// recently used. `head` is the most recently used node, `tail` the
/// least.
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    list: List<K, V>,
    capacity: usize,
}

/// The recency order, apart from the map so that a map entry and the
/// list can be borrowed at once.
struct List<K, V> {
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

struct Node<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

impl<K, V> List<K, V> {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Makes node `idx` the most recently used.
    #[inline]
    fn promote(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Puts `key` at the front in a free slot, or — when `evict` — in
    /// the tail's, returning the key it evicted. Kept out of line, so
    /// that a buffer pool's hits — most of its requests — inline the
    /// rest of [`Lru::touch`].
    #[cold]
    fn admit(&mut self, key: K, val: V, evict: bool) -> (usize, Option<K>) {
        let node = Node {
            key,
            val,
            prev: NIL,
            next: NIL,
        };
        let (idx, evicted) = if evict {
            // A full list is never empty: capacity >= 1.
            let tail = self.tail;
            self.unlink(tail);
            let old = std::mem::replace(&mut self.nodes[tail], node);
            (tail, Some(old.key))
        } else if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            (slot, None)
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1, None)
        };
        self.push_front(idx);
        (idx, evicted)
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty LRU holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            list: List {
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            },
            capacity: capacity.max(1),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.list.promote(idx);
        Some(&self.list.nodes[idx].val)
    }

    /// Finds `key` with one map lookup and makes it the most recently
    /// used, admitting it with `make()` when it is not held. Returns
    /// `Err(slot)` when it was held, else `Ok` of whether admitting it
    /// evicted the least recently used entry.
    #[inline]
    fn find_or_admit(&mut self, key: K, make: impl FnOnce() -> V) -> Result<bool, usize> {
        let full = self.map.len() >= self.capacity;
        let evicted = match self.map.entry(key) {
            Entry::Occupied(e) => {
                self.list.promote(*e.get());
                return Err(*e.get());
            }
            Entry::Vacant(e) => {
                let (slot, evicted) = self.list.admit(e.key().clone(), make(), full);
                e.insert(slot);
                evicted
            }
        };
        if let Some(old) = &evicted {
            self.map.remove(old);
        }
        Ok(evicted.is_some())
    }

    /// Makes `key` the most recently used entry, admitting it with
    /// `make()` — and evicting the least recently used one when full —
    /// when it is not held. Returns `true` on such a miss.
    #[inline]
    pub fn touch(&mut self, key: K, make: impl FnOnce() -> V) -> bool {
        self.find_or_admit(key, make).is_ok()
    }

    /// Inserts (or replaces) `key` as the most recently used entry.
    /// Returns the number of entries evicted to make room (0 or 1).
    pub fn insert(&mut self, key: K, val: V) -> u64 {
        let mut val = Some(val);
        match self.find_or_admit(key, || val.take().expect("made once")) {
            Ok(evicted) => u64::from(evicted),
            Err(slot) => {
                self.list.nodes[slot].val = val.take().expect("not made on a hit");
                0
            }
        }
    }

    /// Removes every entry `keep` rejects; returns how many went.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> u64 {
        let doomed: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, &idx)| idx)
            .collect();
        for &idx in &doomed {
            self.list.unlink(idx);
            self.map.remove(&self.list.nodes[idx].key);
            self.list.free.push(idx);
        }
        doomed.len() as u64
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.list.nodes.clear();
        self.list.free.clear();
        self.list.head = NIL;
        self.list.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert_eq!(lru.insert(1, 10), 0);
        assert_eq!(lru.insert(2, 20), 0);
        assert_eq!(lru.get(&1), Some(&10)); // 1 is now MRU
        assert_eq!(lru.insert(3, 30), 1); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        assert_eq!(lru.len(), 2);
        // Replacing an existing key never evicts.
        assert_eq!(lru.insert(3, 31), 0);
        assert_eq!(lru.get(&3), Some(&31));
    }

    #[test]
    fn lru_retain_unlinks_cleanly() {
        let mut lru: Lru<u32, u32> = Lru::new(8);
        for i in 0..6 {
            lru.insert(i, i);
        }
        assert_eq!(lru.retain(|k| k % 2 == 0), 3);
        assert_eq!(lru.len(), 3);
        for i in 0..6u32 {
            assert_eq!(lru.get(&i).is_some(), i % 2 == 0, "key {i}");
        }
        // The list is still consistent: fill back up and evict through it.
        for i in 10..18 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 8);
    }
}
