//! Disk-based B⁺-tree over byte-string keys.
//!
//! This is the index structure everything in the reproduction sits on,
//! standing in for the GiST B⁺-trees of the paper's evaluation (§6):
//! PRIX's Trie-Symbol and Docid indexes (§5.2.1), ViST's D-Ancestorship
//! index, and the XB-trees of TwigStackXB are all built over it.
//!
//! Properties:
//!
//! * keys and values are arbitrary byte strings; key order is `memcmp`
//!   order, so numeric keys must be encoded big-endian (see
//!   [`encode_u64_be`]),
//! * duplicate keys are supported (the Docid index maps one trie
//!   position to many documents),
//! * slotted-page layout over [`PAGE_SIZE`] pages accessed exclusively
//!   through the [`BufferPool`], so every traversal is I/O-accounted,
//! * point lookups, bounded range scans (the `RangeQuery` primitive of
//!   Algorithm 1), inserts with node splits, tombstone-free deletes
//!   (leaf-local, no eager merge — the PostgreSQL approach), and sorted
//!   bulk loading.

use std::ops::Bound;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::pager::{PageId, NIL_PAGE, PAGE_SIZE};

/// Maximum key length accepted by the tree.
pub const MAX_KEY: usize = 1024;
/// Maximum key+value length accepted by the tree.
pub const MAX_ENTRY: usize = 4000;

/// Encodes a `u64` so that `memcmp` order equals numeric order.
#[inline]
pub fn encode_u64_be(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Decodes a key produced by [`encode_u64_be`].
///
/// # Panics
/// Panics if `b` is not exactly 8 bytes.
#[cfg(test)]
fn decode_u64_be(b: &[u8]) -> u64 {
    u64::from_be_bytes(b.try_into().expect("u64 key must be 8 bytes"))
}

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
    pub fn set_nkeys(p: &mut Page, n: usize) {
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
    pub fn cell_start(p: &Page) -> usize {
        u16::from_le_bytes([p[11], p[12]]) as usize
    }

    #[inline]
    pub fn set_cell_start(p: &mut Page, off: usize) {
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
    pub fn slot(p: &Page, i: usize) -> usize {
        let off = HDR + 2 * i;
        u16::from_le_bytes([p[off], p[off + 1]]) as usize
    }

    #[inline]
    pub fn set_slot(p: &mut Page, i: usize, v: usize) {
        let off = HDR + 2 * i;
        p[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
    }

    #[inline]
    pub fn free_space(p: &Page) -> usize {
        cell_start(p) - (HDR + 2 * nkeys(p))
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

    /// Inserts (key, val) at slot index `i` in a leaf. Returns `false`
    /// when the page lacks contiguous free space (caller compacts or
    /// splits).
    pub fn leaf_insert(p: &mut Page, i: usize, key: &[u8], val: &[u8]) -> bool {
        let need = leaf_cell_size(key.len(), val.len()) + 2;
        if free_space(p) < need {
            return false;
        }
        let n = nkeys(p);
        let start = cell_start(p) - leaf_cell_size(key.len(), val.len());
        p[start..start + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        p[start + 2..start + 4].copy_from_slice(&(val.len() as u16).to_le_bytes());
        p[start + 4..start + 4 + key.len()].copy_from_slice(key);
        p[start + 4 + key.len()..start + 4 + key.len() + val.len()].copy_from_slice(val);
        set_cell_start(p, start);
        // Shift slots right of i.
        for j in (i..n).rev() {
            let v = slot(p, j);
            set_slot(p, j + 1, v);
        }
        set_slot(p, i, start);
        set_nkeys(p, n + 1);
        true
    }

    /// Inserts (key, child) at slot index `i` in an internal node.
    pub fn internal_insert(p: &mut Page, i: usize, key: &[u8], child: PageId) -> bool {
        let need = internal_cell_size(key.len()) + 2;
        if free_space(p) < need {
            return false;
        }
        let n = nkeys(p);
        let start = cell_start(p) - internal_cell_size(key.len());
        p[start..start + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        p[start + 2..start + 10].copy_from_slice(&child.to_le_bytes());
        p[start + 10..start + 10 + key.len()].copy_from_slice(key);
        set_cell_start(p, start);
        for j in (i..n).rev() {
            let v = slot(p, j);
            set_slot(p, j + 1, v);
        }
        set_slot(p, i, start);
        set_nkeys(p, n + 1);
        true
    }

    /// Removes the slot at index `i` (cell bytes become dead space).
    pub fn remove_slot(p: &mut Page, i: usize) {
        let n = nkeys(p);
        for j in i + 1..n {
            let v = slot(p, j);
            set_slot(p, j - 1, v);
        }
        set_nkeys(p, n - 1);
    }

    /// Rewrites all live cells contiguously, reclaiming dead space.
    pub fn compact(p: &mut Page) {
        let n = nkeys(p);
        let t = typ(p);
        let mut cells: Vec<(Vec<u8>, Vec<u8>, PageId)> = Vec::with_capacity(n);
        for i in 0..n {
            if t == TYPE_LEAF {
                cells.push((leaf_key(p, i).to_vec(), leaf_val(p, i).to_vec(), 0));
            } else {
                cells.push((
                    internal_key(p, i).to_vec(),
                    Vec::new(),
                    internal_child(p, i),
                ));
            }
        }
        let link = link(p);
        init(p, t, link);
        for (i, (k, v, c)) in cells.iter().enumerate() {
            let ok = if t == TYPE_LEAF {
                leaf_insert(p, i, k, v)
            } else {
                internal_insert(p, i, k, *c)
            };
            debug_assert!(ok, "compaction cannot run out of space");
        }
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

    /// Number of separators `<= key` — the child index used for
    /// upper-bound (insert) descents.
    pub fn upper_child(p: &Page, key: &[u8]) -> usize {
        let n = nkeys(p);
        let mut lo = 0;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if internal_key(p, mid) <= key {
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

/// A B⁺-tree handle. Reads take `&self`; mutations take `&mut self`.
///
/// `Clone` duplicates the *handle* (pool reference + root id), not the
/// tree: clones share pages, but each keeps the root id it was cloned
/// with, so none sees a root split made through another. A tree that is
/// written while it is read keeps one handle, shared under a lock (the
/// engine's delta does).
#[derive(Clone)]
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    root: PageId,
}

impl BPlusTree {
    /// Creates an empty tree whose pages live in `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let root = pool.allocate_page()?;
        pool.with_page_mut(root, |p| node::init(p, TYPE_LEAF, NIL_PAGE))?;
        Ok(BPlusTree { pool, root })
    }

    fn check_entry(key: &[u8], val: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY || key.len() + val.len() > MAX_ENTRY {
            return Err(StorageError::TooLarge {
                size: key.len() + val.len(),
                max: MAX_ENTRY,
            });
        }
        Ok(())
    }

    /// Inserts `(key, value)`. Duplicate keys are all kept and all
    /// returned by `get_all`/`scan`; their order among themselves is
    /// unspecified (a leaf split can file a new entry left of its
    /// earlier equals), which is the contract `tests/bptree_model.rs`
    /// checks. A caller that needs equal keys in an order sorts them.
    pub fn insert(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        Self::check_entry(key, val)?;
        if let Some((sep, right)) = self.insert_rec(self.root, key, val)? {
            let new_root = self.pool.allocate_page()?;
            let old_root = self.root;
            self.pool.with_page_mut(new_root, |p| {
                node::init(p, TYPE_INTERNAL, old_root);
                let ok = node::internal_insert(p, 0, &sep, right);
                debug_assert!(ok);
            })?;
            self.root = new_root;
        }
        Ok(())
    }

    fn insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        val: &[u8],
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let typ = self.pool.with_page(page, node::typ)?;
        if typ == TYPE_LEAF {
            return self.leaf_insert(page, key, val);
        }
        let j = self.pool.with_page(page, |p| node::upper_child(p, key))?;
        let child = self.pool.with_page(page, |p| node::child_at(p, j))?;
        let Some((sep, right)) = self.insert_rec(child, key, val)? else {
            return Ok(None);
        };
        // Insert the new separator at child-index j -> cell index j.
        let inserted = self.pool.with_page_mut(page, |p| {
            if node::internal_insert(p, j, &sep, right) {
                return true;
            }
            node::compact(p);
            node::internal_insert(p, j, &sep, right)
        })?;
        if inserted {
            return Ok(None);
        }
        // Split the internal node, then retry the separator insert.
        let (up, right_page) = self.split_internal(page)?;
        let target = if sep.as_slice() <= up.as_slice() {
            page
        } else {
            right_page
        };
        // Recompute position in the target node.
        self.pool.with_page_mut(target, |p| {
            let pos = node::upper_child(p, &sep);
            let ok = node::internal_insert(p, pos, &sep, right);
            debug_assert!(ok, "post-split internal insert must fit");
        })?;
        Ok(Some((up, right_page)))
    }

    fn leaf_insert(
        &self,
        page: PageId,
        key: &[u8],
        val: &[u8],
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let done = self.pool.with_page_mut(page, |p| {
            let pos = node::leaf_upper_bound(p, key);
            if node::leaf_insert(p, pos, key, val) {
                return true;
            }
            node::compact(p);
            let pos = node::leaf_upper_bound(p, key);
            node::leaf_insert(p, pos, key, val)
        })?;
        if done {
            return Ok(None);
        }
        let (sep, right_page) = self.split_leaf(page)?;
        let target = if key <= sep.as_slice() {
            page
        } else {
            right_page
        };
        self.pool.with_page_mut(target, |p| {
            let pos = node::leaf_upper_bound(p, key);
            let ok = node::leaf_insert(p, pos, key, val);
            debug_assert!(ok, "post-split leaf insert must fit");
        })?;
        Ok(Some((sep, right_page)))
    }

    /// Splits a leaf; returns `(separator, right_page)`. The separator is
    /// the last key remaining in the left node (keys `<= sep` left,
    /// `>= first right key` right).
    fn split_leaf(&self, page: PageId) -> Result<(Vec<u8>, PageId)> {
        let right_page = self.pool.allocate_page()?;
        let (cells, old_next) = self.pool.with_page(page, |p| {
            let n = node::nkeys(p);
            let cells: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
                .map(|i| (node::leaf_key(p, i).to_vec(), node::leaf_val(p, i).to_vec()))
                .collect();
            (cells, node::link(p))
        })?;
        let mid = cells.len() / 2;
        debug_assert!(mid >= 1, "splitting a leaf with < 2 cells");
        self.pool.with_page_mut(page, |p| {
            node::init(p, TYPE_LEAF, right_page);
            for (i, (k, v)) in cells[..mid].iter().enumerate() {
                let ok = node::leaf_insert(p, i, k, v);
                debug_assert!(ok);
            }
        })?;
        self.pool.with_page_mut(right_page, |p| {
            node::init(p, TYPE_LEAF, old_next);
            for (i, (k, v)) in cells[mid..].iter().enumerate() {
                let ok = node::leaf_insert(p, i, k, v);
                debug_assert!(ok);
            }
        })?;
        Ok((cells[mid - 1].0.clone(), right_page))
    }

    /// Splits an internal node; returns `(pushed_up_key, right_page)`.
    fn split_internal(&self, page: PageId) -> Result<(Vec<u8>, PageId)> {
        let right_page = self.pool.allocate_page()?;
        let (cells, leftmost) = self.pool.with_page(page, |p| {
            let n = node::nkeys(p);
            let cells: Vec<(Vec<u8>, PageId)> = (0..n)
                .map(|i| {
                    (
                        node::internal_key(p, i).to_vec(),
                        node::internal_child(p, i),
                    )
                })
                .collect();
            (cells, node::link(p))
        })?;
        let mid = cells.len() / 2;
        debug_assert!(mid >= 1 && mid < cells.len());
        let (up_key, up_child) = cells[mid].clone();
        self.pool.with_page_mut(page, |p| {
            node::init(p, TYPE_INTERNAL, leftmost);
            for (i, (k, c)) in cells[..mid].iter().enumerate() {
                let ok = node::internal_insert(p, i, k, *c);
                debug_assert!(ok);
            }
        })?;
        self.pool.with_page_mut(right_page, |p| {
            node::init(p, TYPE_INTERNAL, up_child);
            for (i, (k, c)) in cells[mid + 1..].iter().enumerate() {
                let ok = node::internal_insert(p, i, k, *c);
                debug_assert!(ok);
            }
        })?;
        Ok((up_key, right_page))
    }

    /// Returns the value of the first entry equal to `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut out = None;
        self.scan(Bound::Included(key), Bound::Included(key), |_, v| {
            out = Some(v.to_vec());
            false
        })?;
        Ok(out)
    }

    /// Collects all values whose key equals `key`.
    pub fn get_all(&self, key: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.scan(Bound::Included(key), Bound::Included(key), |_, v| {
            out.push(v.to_vec());
            true
        })?;
        Ok(out)
    }

    /// Range scan in key order. `f(key, value)` returns `false` to stop
    /// early. This is the `RangeQuery` primitive of Algorithm 1.
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

    /// Removes entries with key == `key`; when `val` is given only
    /// matching `(key, value)` pairs are removed. Returns the number of
    /// entries removed. Pages are never merged (lazy underflow).
    pub fn delete(&mut self, key: &[u8], val: Option<&[u8]>) -> Result<usize> {
        // Find the first leaf that can contain `key`.
        let mut page = self.root;
        loop {
            let (is_leaf, next) = self.pool.with_page(page, |p| {
                if node::typ(p) == TYPE_LEAF {
                    (true, NIL_PAGE)
                } else {
                    let j = node::lower_child(p, key);
                    (false, node::child_at(p, j))
                }
            })?;
            if is_leaf {
                break;
            }
            page = next;
        }
        let mut removed = 0;
        loop {
            enum Step {
                Continue(PageId),
                Done,
            }
            let step = self.pool.with_page_mut(page, |p| {
                let mut i = node::leaf_lower_bound(p, key);
                loop {
                    if i >= node::nkeys(p) {
                        break;
                    }
                    let k = node::leaf_key(p, i);
                    if k > key {
                        return Step::Done;
                    }
                    debug_assert_eq!(k, key);
                    let matches = val.is_none_or(|v| node::leaf_val(p, i) == v);
                    if matches {
                        node::remove_slot(p, i);
                        removed += 1;
                    } else {
                        i += 1;
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
                Step::Done => return Ok(removed),
                Step::Continue(next) => page = next,
            }
        }
    }

    /// Total number of entries (walks every leaf; intended for tests and
    /// stats, not the hot path).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.scan(Bound::Unbounded, Bound::Unbounded, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
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

    /// Bulk loads a tree from `entries`, which must be sorted by key
    /// (stable for duplicates). Roughly `fill` of each page is used
    /// (`0.0 < fill <= 1.0`).
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
        let mut last_key: Option<Vec<u8>> = None;

        let flush_leaf = |cells: &mut Vec<(Vec<u8>, Vec<u8>)>,
                          leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> Result<()> {
            if cells.is_empty() {
                return Ok(());
            }
            let page = pool.allocate_page()?;
            pool.with_page_mut(page, |p| {
                node::init(p, TYPE_LEAF, NIL_PAGE);
                for (i, (k, v)) in cells.iter().enumerate() {
                    let ok = node::leaf_insert(p, i, k, v);
                    debug_assert!(ok, "bulk leaf overflow");
                }
            })?;
            leaves.push((cells[0].0.clone(), page));
            cells.clear();
            Ok(())
        };

        for (k, v) in entries {
            Self::check_entry(&k, &v)?;
            if let Some(prev) = &last_key {
                assert!(prev <= &k, "bulk_load requires sorted input");
            }
            last_key = Some(k.clone());
            let sz = node::leaf_cell_size(k.len(), v.len()) + 2;
            if cur_bytes + sz > budget && !cur.is_empty() {
                flush_leaf(&mut cur, &mut leaves)?;
                cur_bytes = 0;
            }
            cur_bytes += sz;
            cur.push((k, v));
        }
        flush_leaf(&mut cur, &mut leaves)?;

        if leaves.is_empty() {
            return Self::create(pool);
        }
        // Chain the leaves.
        for w in leaves.windows(2) {
            let (_, left) = &w[0];
            let (_, right) = &w[1];
            let right = *right;
            pool.with_page_mut(*left, |p| node::set_link(p, right))?;
        }

        // Build internal levels bottom-up.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let page = pool.allocate_page()?;
                let first_key = level[i].0.clone();
                let mut used = 0usize;
                pool.with_page_mut(page, |p| {
                    node::init(p, TYPE_INTERNAL, level[i].1);
                    used = 1;
                    let mut bytes = 0usize;
                    let mut idx = 0usize;
                    while i + used < level.len() {
                        let (k, c) = &level[i + used];
                        let sz = node::internal_cell_size(k.len()) + 2;
                        if bytes + sz > budget {
                            break;
                        }
                        let ok = node::internal_insert(p, idx, k, *c);
                        debug_assert!(ok, "bulk internal overflow");
                        bytes += sz;
                        idx += 1;
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

    fn tree() -> BPlusTree {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        BPlusTree::create(pool).unwrap()
    }

    fn k(v: u64) -> [u8; 8] {
        encode_u64_be(v)
    }

    #[test]
    fn empty_tree_has_no_entries() {
        let t = tree();
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.get(&k(1)).unwrap(), None);
    }

    #[test]
    fn insert_then_get() {
        let mut t = tree();
        t.insert(&k(5), b"five").unwrap();
        t.insert(&k(3), b"three").unwrap();
        t.insert(&k(9), b"nine").unwrap();
        assert_eq!(t.get(&k(3)).unwrap().unwrap(), b"three");
        assert_eq!(t.get(&k(5)).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&k(9)).unwrap().unwrap(), b"nine");
        assert_eq!(t.get(&k(4)).unwrap(), None);
    }

    #[test]
    fn thousands_of_inserts_stay_sorted() {
        let mut t = tree();
        // Insert in a scrambled order.
        let n: u64 = 5000;
        let mut x: u64 = 1;
        for _ in 0..n {
            x = (x * 48271) % 65537;
            t.insert(&k(x), &x.to_le_bytes()).unwrap();
        }
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        t.scan(Bound::Unbounded, Bound::Unbounded, |key, val| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= key);
            }
            assert_eq!(
                decode_u64_be(key),
                u64::from_le_bytes(val.try_into().unwrap())
            );
            prev = Some(key.to_vec());
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, n as usize);
        assert!(t.height().unwrap() >= 2, "5000 entries must split");
    }

    #[test]
    fn duplicate_keys_are_all_returned() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(&k(7), &i.to_le_bytes()).unwrap();
        }
        t.insert(&k(6), b"a").unwrap();
        t.insert(&k(8), b"b").unwrap();
        let vals = t.get_all(&k(7)).unwrap();
        assert_eq!(vals.len(), 100);
    }

    #[test]
    fn duplicates_spanning_splits_are_found() {
        let mut t = tree();
        // Enough duplicates to force multiple leaf splits.
        for i in 0..2000u64 {
            t.insert(&k(42), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.get_all(&k(42)).unwrap().len(), 2000);
        assert!(t.height().unwrap() >= 2);
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(&k(i), &[]).unwrap();
        }
        let collect = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| {
            let mut v = Vec::new();
            t.scan(lo, hi, |key, _| {
                v.push(decode_u64_be(key));
                true
            })
            .unwrap();
            v
        };
        assert_eq!(
            collect(Bound::Included(&k(10)), Bound::Included(&k(13))),
            vec![10, 11, 12, 13]
        );
        assert_eq!(
            collect(Bound::Excluded(&k(10)), Bound::Excluded(&k(13))),
            vec![11, 12]
        );
        assert_eq!(
            collect(Bound::Unbounded, Bound::Included(&k(2))),
            vec![0, 1, 2]
        );
        assert_eq!(
            collect(Bound::Included(&k(97)), Bound::Unbounded),
            vec![97, 98, 99]
        );
    }

    #[test]
    fn scan_early_stop() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(&k(i), &[]).unwrap();
        }
        let mut seen = 0;
        t.scan(Bound::Unbounded, Bound::Unbounded, |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn delete_removes_matching_entries() {
        let mut t = tree();
        for i in 0..50u64 {
            t.insert(&k(i % 10), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.delete(&k(3), None).unwrap(), 5);
        assert!(t.get_all(&k(3)).unwrap().is_empty());
        assert_eq!(t.len().unwrap(), 45);
    }

    #[test]
    fn delete_by_value() {
        let mut t = tree();
        t.insert(&k(1), b"a").unwrap();
        t.insert(&k(1), b"b").unwrap();
        t.insert(&k(1), b"a").unwrap();
        assert_eq!(t.delete(&k(1), Some(b"a")).unwrap(), 2);
        assert_eq!(t.get_all(&k(1)).unwrap(), vec![b"b".to_vec()]);
    }

    #[test]
    fn delete_across_leaf_boundaries() {
        let mut t = tree();
        for i in 0..3000u64 {
            t.insert(&k(5), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.delete(&k(5), None).unwrap(), 3000);
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn insert_after_delete_reuses_space() {
        let mut t = tree();
        for i in 0..500u64 {
            t.insert(&k(i), &[0u8; 64]).unwrap();
        }
        for i in 0..500u64 {
            t.delete(&k(i), None).unwrap();
        }
        for i in 0..500u64 {
            t.insert(&k(i), &[1u8; 64]).unwrap();
        }
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(t.get(&k(123)).unwrap().unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut t = tree();
        let big_key = vec![0u8; MAX_KEY + 1];
        assert!(matches!(
            t.insert(&big_key, b""),
            Err(StorageError::TooLarge { .. })
        ));
        let big_val = vec![0u8; MAX_ENTRY];
        assert!(t.insert(&k(1), &big_val).is_err());
    }

    #[test]
    fn variable_length_string_keys() {
        let mut t = tree();
        let words = ["b", "aa", "abc", "a", "zzz", "ab"];
        for (i, w) in words.iter().enumerate() {
            t.insert(w.as_bytes(), &[i as u8]).unwrap();
        }
        let mut got = Vec::new();
        t.scan(Bound::Unbounded, Bound::Unbounded, |key, _| {
            got.push(String::from_utf8(key.to_vec()).unwrap());
            true
        })
        .unwrap();
        assert_eq!(got, vec!["a", "aa", "ab", "abc", "b", "zzz"]);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..10_000u64)
            .map(|i| (k(i).to_vec(), i.to_le_bytes().to_vec()))
            .collect();
        let t = BPlusTree::bulk_load(Arc::clone(&pool), entries.clone(), 0.9).unwrap();
        assert_eq!(t.len().unwrap(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), i.to_le_bytes());
        }
        let mut scanned = Vec::new();
        t.scan(
            Bound::Included(&k(500)),
            Bound::Excluded(&k(505)),
            |key, _| {
                scanned.push(decode_u64_be(key));
                true
            },
        )
        .unwrap();
        assert_eq!(scanned, vec![500, 501, 502, 503, 504]);
    }

    #[test]
    fn bulk_load_empty_gives_empty_tree() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 8));
        let t = BPlusTree::bulk_load(pool, Vec::new(), 0.9).unwrap();
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..1000u64)
            .map(|i| (k(i * 2).to_vec(), Vec::new()))
            .collect();
        let mut t = BPlusTree::bulk_load(pool, entries, 0.8).unwrap();
        for i in 0..1000u64 {
            t.insert(&k(i * 2 + 1), &[]).unwrap();
        }
        assert_eq!(t.len().unwrap(), 2000);
    }

    #[test]
    fn io_is_counted_through_the_pool() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 4));
        let mut t = BPlusTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..5000u64 {
            t.insert(&k(i), &[0u8; 32]).unwrap();
        }
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
