//! Read-only, bulk-loaded B⁺-tree over byte-string keys.
//!
//! It stands in for the GiST B⁺-trees of the paper's evaluation (§6)
//! where a baseline needs a paged index: ViST's D-Ancestorship and Docid
//! indexes are built over it. (PRIX's own indexes live in segment files
//! and, for the mutable delta, in ordered maps in memory.)
//!
//! Properties:
//!
//! * keys and values are arbitrary byte strings; key order is `memcmp`
//!   order, so numeric keys must be encoded big-endian,
//! * duplicate keys are kept, in load order (the Docid index maps one
//!   position to many documents),
//! * slotted-page layout over [`PAGE_SIZE`] pages accessed exclusively
//!   through the [`BufferPool`], so every traversal is I/O-accounted,
//! * built once from sorted entries ([`BPlusTree::bulk_load`]), then
//!   only read: point lookups and bounded range scans (the `RangeQuery`
//!   primitive of Algorithm 1).

use std::ops::Bound;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::pager::{PageId, NIL_PAGE, PAGE_SIZE};

/// Maximum key length accepted by the tree.
pub const MAX_KEY: usize = 1024;
/// Maximum key+value length accepted by the tree.
pub const MAX_ENTRY: usize = 4000;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;

// Page header:
//   [0]      u8  type
//   [1..3]   u16 nkeys
//   [3..11]  u64 link (leaf: next-leaf page; internal: leftmost child)
//   [11..13] u16 cell_start (lowest byte used by cell data)
// Slot array of u16 cell offsets begins at HDR.
const HDR: usize = 13;

type Page = [u8; PAGE_SIZE];

mod node {
    use super::*;

    #[inline]
    pub fn typ(p: &Page) -> u8 {
        p[0]
    }

    #[inline]
    pub fn nkeys(p: &Page) -> usize {
        u16::from_le_bytes([p[1], p[2]]) as usize
    }

    #[inline]
    fn set_nkeys(p: &mut Page, n: usize) {
        p[1..3].copy_from_slice(&(n as u16).to_le_bytes());
    }

    #[inline]
    pub fn link(p: &Page) -> PageId {
        u64::from_le_bytes(p[3..11].try_into().unwrap())
    }

    #[inline]
    pub fn set_link(p: &mut Page, id: PageId) {
        p[3..11].copy_from_slice(&id.to_le_bytes());
    }

    #[inline]
    fn cell_start(p: &Page) -> usize {
        u16::from_le_bytes([p[11], p[12]]) as usize
    }

    #[inline]
    fn set_cell_start(p: &mut Page, off: usize) {
        p[11..13].copy_from_slice(&(off as u16).to_le_bytes());
    }

    pub fn init(p: &mut Page, typ: u8, link: PageId) {
        p.fill(0);
        p[0] = typ;
        set_nkeys(p, 0);
        set_link(p, link);
        set_cell_start(p, PAGE_SIZE);
    }

    #[inline]
    fn slot(p: &Page, i: usize) -> usize {
        let off = HDR + 2 * i;
        u16::from_le_bytes([p[off], p[off + 1]]) as usize
    }

    #[inline]
    fn set_slot(p: &mut Page, i: usize, v: usize) {
        let off = HDR + 2 * i;
        p[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
    }

    /// Size of a leaf cell holding (key, val).
    #[inline]
    pub fn leaf_cell_size(klen: usize, vlen: usize) -> usize {
        4 + klen + vlen
    }

    /// Size of an internal cell holding (key, child).
    #[inline]
    pub fn internal_cell_size(klen: usize) -> usize {
        10 + klen
    }

    pub fn leaf_key(p: &Page, i: usize) -> &[u8] {
        let c = slot(p, i);
        let klen = u16::from_le_bytes([p[c], p[c + 1]]) as usize;
        &p[c + 4..c + 4 + klen]
    }

    pub fn leaf_val(p: &Page, i: usize) -> &[u8] {
        let c = slot(p, i);
        let klen = u16::from_le_bytes([p[c], p[c + 1]]) as usize;
        let vlen = u16::from_le_bytes([p[c + 2], p[c + 3]]) as usize;
        &p[c + 4 + klen..c + 4 + klen + vlen]
    }

    pub fn internal_key(p: &Page, i: usize) -> &[u8] {
        let c = slot(p, i);
        let klen = u16::from_le_bytes([p[c], p[c + 1]]) as usize;
        &p[c + 10..c + 10 + klen]
    }

    pub fn internal_child(p: &Page, i: usize) -> PageId {
        let c = slot(p, i);
        u64::from_le_bytes(p[c + 2..c + 10].try_into().unwrap())
    }

    /// Appends the cell `head ++ key ++ tail` as the page's last slot,
    /// cells growing down from the end of the page. The bulk loader
    /// sizes every page so that its cells fit.
    fn push(p: &mut Page, head: &[u8], key: &[u8], tail: &[u8]) {
        let n = nkeys(p);
        let start = cell_start(p) - head.len() - key.len() - tail.len();
        debug_assert!(start >= HDR + 2 * (n + 1), "bulk page overflow");
        let mut at = start;
        for part in [head, key, tail] {
            p[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        set_cell_start(p, start);
        set_slot(p, n, start);
        set_nkeys(p, n + 1);
    }

    /// Appends (key, val) to a leaf: klen(2) vlen(2) key val.
    pub fn push_leaf(p: &mut Page, key: &[u8], val: &[u8]) {
        let mut head = [0u8; 4];
        head[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        head[2..].copy_from_slice(&(val.len() as u16).to_le_bytes());
        push(p, &head, key, val);
    }

    /// Appends (key, child) to an internal node: klen(2) child(8) key.
    pub fn push_internal(p: &mut Page, key: &[u8], child: PageId) {
        let mut head = [0u8; 10];
        head[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        head[2..].copy_from_slice(&child.to_le_bytes());
        push(p, &head, key, &[]);
    }

    /// Number of separators strictly less than `key` — the child index
    /// used for lower-bound descents (duplicates may sit left of an
    /// equal separator).
    pub fn lower_child(p: &Page, key: &[u8]) -> usize {
        let n = nkeys(p);
        let mut lo = 0;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if internal_key(p, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child page for child-index `j` (0 = leftmost).
    pub fn child_at(p: &Page, j: usize) -> PageId {
        if j == 0 {
            link(p)
        } else {
            internal_child(p, j - 1)
        }
    }

    /// First slot in a leaf whose key is `>= key` (dup-stable).
    pub fn leaf_lower_bound(p: &Page, key: &[u8]) -> usize {
        let n = nkeys(p);
        let mut lo = 0;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if leaf_key(p, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First slot in a leaf whose key is `> key`.
    pub fn leaf_upper_bound(p: &Page, key: &[u8]) -> usize {
        let n = nkeys(p);
        let mut lo = 0;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if leaf_key(p, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A bulk-loaded B⁺-tree: built once by [`BPlusTree::bulk_load`], then
/// only read, so every method takes `&self`. `Clone` duplicates the
/// *handle* (pool reference + root id); clones read the same pages.
#[derive(Clone)]
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    root: PageId,
}

impl BPlusTree {
    fn check_entry(key: &[u8], val: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY || key.len() + val.len() > MAX_ENTRY {
            return Err(StorageError::TooLarge {
                size: key.len() + val.len(),
                max: MAX_ENTRY,
            });
        }
        Ok(())
    }

    /// Returns the value of the first entry (in load order) equal to
    /// `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut out = None;
        self.scan(Bound::Included(key), Bound::Included(key), |_, v| {
            out = Some(v.to_vec());
            false
        })?;
        Ok(out)
    }

    /// Range scan in key order, equal keys in load order. `f(key,
    /// value)` returns `false` to stop early. This is the `RangeQuery`
    /// primitive of Algorithm 1.
    pub fn scan(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        // Descend to the leftmost leaf that can contain the lower bound.
        let mut page = self.root;
        loop {
            let (typ, next) = self.pool.with_page(page, |p| {
                if node::typ(p) == TYPE_LEAF {
                    (TYPE_LEAF, NIL_PAGE)
                } else {
                    let j = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) => node::lower_child(p, k),
                        // Keys > k may still live left of a separator == k.
                        Bound::Excluded(k) => node::lower_child(p, k),
                    };
                    (TYPE_INTERNAL, node::child_at(p, j))
                }
            })?;
            if typ == TYPE_LEAF {
                break;
            }
            page = next;
        }
        // Walk the leaf chain.
        loop {
            enum Step {
                Continue(PageId),
                Done,
            }
            let step = self.pool.with_page(page, |p| {
                let n = node::nkeys(p);
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(k) => node::leaf_lower_bound(p, k),
                    Bound::Excluded(k) => node::leaf_upper_bound(p, k),
                };
                for i in start..n {
                    let k = node::leaf_key(p, i);
                    match hi {
                        Bound::Included(h) if k > h => return Step::Done,
                        Bound::Excluded(h) if k >= h => return Step::Done,
                        _ => {}
                    }
                    if !f(k, node::leaf_val(p, i)) {
                        return Step::Done;
                    }
                }
                let next = node::link(p);
                if next == NIL_PAGE {
                    Step::Done
                } else {
                    Step::Continue(next)
                }
            })?;
            match step {
                Step::Done => return Ok(()),
                Step::Continue(next) => page = next,
            }
        }
    }

    /// Height of the tree (1 = root is a leaf).
    #[cfg(test)]
    fn height(&self) -> Result<usize> {
        let mut h = 1;
        let mut page = self.root;
        loop {
            let (is_leaf, next) = self.pool.with_page(page, |p| {
                if node::typ(p) == TYPE_LEAF {
                    (true, NIL_PAGE)
                } else {
                    (false, node::link(p))
                }
            })?;
            if is_leaf {
                return Ok(h);
            }
            h += 1;
            page = next;
        }
    }

    /// Bulk loads a tree from `entries`, which must be sorted by key;
    /// equal keys keep the order they come in. Roughly `fill` of each
    /// page is used (`0.0 < fill <= 1.0`). No entries make one empty
    /// leaf.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, entries: I, fill: f64) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor out of range");
        let budget = ((PAGE_SIZE - HDR) as f64 * fill) as usize;

        // Build the leaf level.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut cur_bytes = 0usize;

        let write_leaf = |cells: &mut Vec<(Vec<u8>, Vec<u8>)>,
                          leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> Result<()> {
            let page = pool.allocate_page()?;
            pool.with_page_mut(page, |p| {
                node::init(p, TYPE_LEAF, NIL_PAGE);
                for (k, v) in cells.iter() {
                    node::push_leaf(p, k, v);
                }
            })?;
            let first = cells.first().map_or_else(Vec::new, |(k, _)| k.clone());
            leaves.push((first, page));
            cells.clear();
            Ok(())
        };

        for (k, v) in entries {
            Self::check_entry(&k, &v)?;
            if let Some((prev, _)) = cur.last() {
                assert!(prev <= &k, "bulk_load requires sorted input");
            }
            let sz = node::leaf_cell_size(k.len(), v.len()) + 2;
            if cur_bytes + sz > budget && !cur.is_empty() {
                write_leaf(&mut cur, &mut leaves)?;
                cur_bytes = 0;
            }
            cur_bytes += sz;
            cur.push((k, v));
        }
        if !cur.is_empty() || leaves.is_empty() {
            write_leaf(&mut cur, &mut leaves)?;
        }
        // Chain the leaves.
        for w in leaves.windows(2) {
            let right = w[1].1;
            pool.with_page_mut(w[0].1, |p| node::set_link(p, right))?;
        }

        // Build internal levels bottom-up.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let page = pool.allocate_page()?;
                let first_key = level[i].0.clone();
                let mut used = 1;
                pool.with_page_mut(page, |p| {
                    node::init(p, TYPE_INTERNAL, level[i].1);
                    let mut bytes = 0usize;
                    while let Some((k, c)) = level.get(i + used) {
                        let sz = node::internal_cell_size(k.len()) + 2;
                        if bytes + sz > budget {
                            break;
                        }
                        node::push_internal(p, k, *c);
                        bytes += sz;
                        used += 1;
                    }
                })?;
                next_level.push((first_key, page));
                i += used;
            }
            level = next_level;
        }
        Ok(BPlusTree {
            pool,
            root: level[0].1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn k(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    /// A tree bulk-loaded from `entries` into a fresh 64-page pool.
    fn load(entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) -> BPlusTree {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        BPlusTree::bulk_load(pool, entries, 0.9).unwrap()
    }

    /// Every `(key, value)` of `t` in the bounds, in scan order, keys
    /// read as `u64`s.
    fn entries(t: &BPlusTree, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<(u64, Vec<u8>)> {
        let mut v = Vec::new();
        t.scan(lo, hi, |key, val| {
            v.push((u64::from_be_bytes(key.try_into().unwrap()), val.to_vec()));
            true
        })
        .unwrap();
        v
    }

    #[test]
    fn empty_tree_has_no_entries() {
        let t = load(Vec::new());
        assert_eq!(t.height().unwrap(), 1, "one empty leaf");
        assert!(entries(&t, Bound::Unbounded, Bound::Unbounded).is_empty());
        assert_eq!(t.get(&k(1)).unwrap(), None);
    }

    #[test]
    fn duplicate_keys_are_all_returned() {
        let sevens = (0..100u64).map(|i| (k(7).to_vec(), i.to_le_bytes().to_vec()));
        let all = std::iter::once((k(6).to_vec(), b"a".to_vec()))
            .chain(sevens)
            .chain([(k(8).to_vec(), b"b".to_vec())]);
        let t = load(all);
        let got = entries(&t, Bound::Included(&k(7)), Bound::Included(&k(7)));
        assert_eq!(got.len(), 100);
        assert_eq!(t.get(&k(7)).unwrap().unwrap(), 0u64.to_le_bytes());
    }

    /// Duplicates that fill several leaves come back in the order they
    /// were loaded.
    #[test]
    fn duplicates_spanning_leaves_keep_their_load_order() {
        let t = load((0..2000u64).map(|i| (k(42).to_vec(), i.to_le_bytes().to_vec())));
        assert!(t.height().unwrap() >= 2, "2000 entries fill several leaves");
        let vals: Vec<u64> = entries(&t, Bound::Included(&k(42)), Bound::Included(&k(42)))
            .iter()
            .map(|(_, v)| u64::from_le_bytes(v[..].try_into().unwrap()))
            .collect();
        assert_eq!(vals, (0..2000).collect::<Vec<_>>());
        assert!(entries(&t, Bound::Excluded(&k(42)), Bound::Unbounded).is_empty());
    }

    #[test]
    fn range_scan_bounds() {
        let t = load((0..100u64).map(|i| (k(i).to_vec(), Vec::new())));
        let keys = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<u64> {
            entries(&t, lo, hi).into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(
            keys(Bound::Included(&k(10)), Bound::Included(&k(13))),
            vec![10, 11, 12, 13]
        );
        assert_eq!(
            keys(Bound::Excluded(&k(10)), Bound::Excluded(&k(13))),
            vec![11, 12]
        );
        assert_eq!(
            keys(Bound::Unbounded, Bound::Included(&k(2))),
            vec![0, 1, 2]
        );
        assert_eq!(
            keys(Bound::Included(&k(97)), Bound::Unbounded),
            vec![97, 98, 99]
        );
    }

    #[test]
    fn scan_early_stop() {
        let t = load((0..100u64).map(|i| (k(i).to_vec(), Vec::new())));
        let mut seen = 0;
        t.scan(Bound::Unbounded, Bound::Unbounded, |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 8));
        let big_key = vec![0u8; MAX_KEY + 1];
        assert!(matches!(
            BPlusTree::bulk_load(Arc::clone(&pool), [(big_key, Vec::new())], 0.9),
            Err(StorageError::TooLarge { .. })
        ));
        let big_val = vec![0u8; MAX_ENTRY];
        assert!(BPlusTree::bulk_load(pool, [(k(1).to_vec(), big_val)], 0.9).is_err());
    }

    #[test]
    #[should_panic(expected = "sorted input")]
    fn unsorted_input_is_refused() {
        load([(k(2).to_vec(), Vec::new()), (k(1).to_vec(), Vec::new())]);
    }

    #[test]
    fn variable_length_string_keys() {
        let words = ["a", "aa", "ab", "abc", "b", "zzz"];
        let t = load(words.iter().map(|w| (w.as_bytes().to_vec(), Vec::new())));
        let mut got = Vec::new();
        t.scan(Bound::Unbounded, Bound::Unbounded, |key, _| {
            got.push(String::from_utf8(key.to_vec()).unwrap());
            true
        })
        .unwrap();
        assert_eq!(got, words);
        assert!(t.get(b"abc").unwrap().is_some());
        assert!(t.get(b"abd").unwrap().is_none());
    }

    #[test]
    fn bulk_load_answers_gets_and_scans() {
        let t = load((0..10_000u64).map(|i| (k(i).to_vec(), i.to_le_bytes().to_vec())));
        assert!(t.height().unwrap() >= 2);
        assert_eq!(
            entries(&t, Bound::Unbounded, Bound::Unbounded).len(),
            10_000
        );
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), i.to_le_bytes());
        }
        let scanned: Vec<u64> = entries(&t, Bound::Included(&k(500)), Bound::Excluded(&k(505)))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(scanned, vec![500, 501, 502, 503, 504]);
    }

    #[test]
    fn io_is_counted_through_the_pool() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 4));
        let all = (0..5000u64).map(|i| (k(i).to_vec(), vec![0u8; 32]));
        let t = BPlusTree::bulk_load(Arc::clone(&pool), all, 0.9).unwrap();
        pool.clear().unwrap();
        let before = pool.snapshot();
        t.get(&k(2500)).unwrap().unwrap();
        let d = pool.snapshot().since(&before);
        assert!(d.physical_reads >= 2, "cold lookup must read root + leaf");
        assert!(
            d.physical_reads <= 6,
            "lookup reads at most the root-to-leaf path"
        );
    }
}
