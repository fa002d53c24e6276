//! Immutable index segments: external-merge-sort bulk loading into
//! implicit B⁺-tree files (the LSM-flavored half of the index
//! lifecycle).
//!
//! The incremental path indexes one document at a time through the
//! WAL'd buffer pool — the right shape for trickle inserts, the wrong
//! one for loading millions of documents: every trie node becomes a
//! B⁺-tree insert, and cold scans churn the pool because pages carry no
//! key locality. A *segment* is the bulk alternative, following the
//! read-only bstree design (cds-bstree-file-readonly): sort everything
//! once with bounded memory, then write an **implicit** tree — entries
//! packed in key order with no per-node pointers, cut into groups of
//! exactly one [`SEG_BLOCK`] each, plus a fence array (the first key of
//! every group) that the reader holds in memory. A lookup is one binary
//! search over the resident fences and one binary search over the
//! encoded rows of one cached block; a range scan continues into the
//! following blocks only while their fences are still inside the range.
//!
//! One segment file holds one index flavor (RP or EP) for a contiguous
//! range of document ids (`doc_base .. doc_base + n_docs`). Format
//! version 2:
//!
//! ```text
//! +--------+----------+---------+-----+-------------+------------+-----+----------+------------+------+-----------+
//! | header | rec data | rec idx | pad | tag entries | tag fences | pad | doc ends | doc fences | meta | CRC table |
//! +--------+----------+---------+-----+-------------+------------+-----+----------+------------+------+-----------+
//!                                     ^ block-aligned                  ^ block-aligned
//! ```
//!
//! * **header** — fixed 128 bytes, magic `PRIXSEG\0`, version, counts,
//!   section offsets, its own CRC-32. Every offset follows from the
//!   counts (`Header::lay_out`); a header that disagrees with that
//!   arithmetic is refused at open.
//! * **rec data / rec idx** — per-document refinement records (opaque
//!   blobs) and their `n_docs + 1` offsets.
//! * **tag entries** — the Trie-Symbol index: 28-byte
//!   `(sym, left, right, level, fine_gap)` rows sorted by `(sym, left)`.
//!   The section starts on a block boundary and every group of
//!   [`TAG_GROUP`] rows is zero-padded (8 bytes) to one block, so group
//!   *g* is block *g* of the section.
//! * **doc ends** — the Docid index: 12-byte `(left, doc)` rows sorted
//!   by `(left, doc)`, laid out the same way ([`DOC_GROUP`] rows and 4
//!   pad bytes per block).
//! * **tag / doc fences** — the first key of every group (12 and 8
//!   bytes each), read once at open: 16 bytes of memory per 4 KiB of
//!   entries.
//! * **meta** — an opaque blob (the core layer stores MaxGap table,
//!   childless set, build stats).
//! * **CRC table** — one CRC-32 per [`SEG_BLOCK`]-sized block of
//!   everything before it, so `fsck` can verify the file without
//!   trusting any of it.
//!
//! Version 1 (unpadded groups, fences searched on disk) is refused at
//! open: re-index.
//!
//! Readers bypass the buffer pool entirely: direct [`RawStore`] reads
//! through a per-file block cache of [`CACHE_BLOCKS`] blocks,
//! counted separately in [`IoStats`] (`seg_block_reads` /
//! `seg_block_fetches`) so benchmarks can compare segment I/O against
//! buffer-pool I/O.
//!
//! A segment tier has a third file next to its RP and EP segments: the
//! **value run** ([`ValueRunBuilder`] / [`ValueRunReader`]), the sorted
//! leaf-value postings of the tier's documents. Its format is described
//! where it is implemented, further down; it shares the block cache,
//! the counters and the CRC table with the segments.
//!
//! The [`Manifest`] (double-slot, generation-stamped, CRC'd) is the
//! atomic commit point for the whole index lifecycle: a crash anywhere
//! during a bulk build or compaction leaves the previous manifest
//! serving the previous files.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::stats::IoStats;
use crate::store::{FileStore, MemStore, RawStore};
use crate::sync::Mutex;

/// Segment file magic (first 8 bytes).
pub const SEG_MAGIC: [u8; 8] = *b"PRIXSEG\0";
/// Segment format version (2: block-aligned, padded fence groups).
pub const SEG_VERSION: u32 = 2;
/// Fixed header length in bytes.
pub const SEG_HEADER_LEN: u64 = 128;
/// Block granularity for the reader cache and the CRC table.
pub const SEG_BLOCK: usize = 4096;
/// Blocks held by one segment's read cache (256 KiB).
pub const CACHE_BLOCKS: usize = 64;
/// Tag entries per fence group: the most that fit one block (4088 of
/// 4096 bytes; the group is zero-padded to the block).
pub const TAG_GROUP: u64 = 146;
/// Doc-end entries per fence group (4092 of 4096 bytes).
pub const DOC_GROUP: u64 = 341;
/// Encoded tag entry size: sym(4) left(8) right(8) level(4) fine(4).
pub const TAG_ENTRY_LEN: u64 = 28;
/// Encoded tag fence size: sym(4) left(8), the key prefix of a row.
pub const TAG_FENCE_LEN: u64 = 12;
/// Encoded doc-end entry size: left(8) doc(4).
pub const DOC_ENTRY_LEN: u64 = 12;
/// Encoded doc fence size: left(8), the key prefix of a row.
pub const DOC_FENCE_LEN: u64 = 8;
/// `kind` byte for a Regular-Prüfer segment.
pub const SEG_KIND_RP: u8 = 0;
/// `kind` byte for an Extended-Prüfer segment.
pub const SEG_KIND_EP: u8 = 1;

fn corrupt(reason: String) -> StorageError {
    StorageError::Corrupt { page: 0, reason }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a / b + u64::from(a % b != 0)
}

/// `(sym, left)` of an encoded tag row or tag fence.
fn tag_key(b: &[u8]) -> (u32, u64) {
    (
        u32::from_le_bytes(b[0..4].try_into().unwrap()),
        u64::from_le_bytes(b[4..12].try_into().unwrap()),
    )
}

/// `left` of an encoded doc-end row or doc fence.
fn doc_key(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[0..8].try_into().unwrap())
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Buffered sequential reader over one spilled run.
pub struct RunBuf {
    store: Box<dyn RawStore>,
    pos: u64,
    end: u64,
    buf: Vec<u8>,
    off: usize,
}

impl RunBuf {
    const CHUNK: usize = 256 * 1024;

    fn new(store: Box<dyn RawStore>, end: u64) -> Self {
        RunBuf {
            store,
            pos: 0,
            end,
            buf: Vec::new(),
            off: 0,
        }
    }

    fn remaining(&self) -> u64 {
        (self.end - self.pos) + (self.buf.len() - self.off) as u64
    }

    /// Fills `dst` from the run, refilling the chunk buffer as needed.
    pub fn take(&mut self, dst: &mut [u8]) -> Result<()> {
        let mut done = 0;
        while done < dst.len() {
            if self.off == self.buf.len() {
                let want = Self::CHUNK.min((self.end - self.pos) as usize);
                if want == 0 {
                    return Err(corrupt("spill run truncated".into()));
                }
                self.buf.resize(want, 0);
                self.store.read_at(self.pos, &mut self.buf)?;
                self.pos += want as u64;
                self.off = 0;
            }
            let n = (dst.len() - done).min(self.buf.len() - self.off);
            dst[done..done + n].copy_from_slice(&self.buf[self.off..self.off + n]);
            self.off += n;
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
}

/// An item an [`ExternalSorter`] can spill and re-read.
pub trait SortItem: Ord + Sized {
    /// Appends a self-framing encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one item from a spill run.
    fn decode(r: &mut RunBuf) -> Result<Self>;
    /// Approximate in-memory footprint, for the run budget.
    fn mem_size(&self) -> usize;
}

/// Factory for spill-run scratch stores (anonymous temp files on disk,
/// [`MemStore`]s in tests).
pub type TempFactory = Box<dyn FnMut() -> Result<Box<dyn RawStore>> + Send>;

/// Bounded-memory sorter: buffers items up to a budget, spills sorted
/// runs to scratch stores, and k-way-merges the runs on drain.
pub struct ExternalSorter<T: SortItem> {
    budget: usize,
    mem: usize,
    items: Vec<T>,
    runs: Vec<(Box<dyn RawStore>, u64)>,
    temp: TempFactory,
    count: u64,
}

impl<T: SortItem> ExternalSorter<T> {
    /// A sorter holding at most ~`budget` bytes of items in memory.
    pub fn new(budget: usize, temp: TempFactory) -> Self {
        ExternalSorter {
            budget: budget.max(64 * 1024),
            mem: 0,
            items: Vec::new(),
            runs: Vec::new(),
            temp,
            count: 0,
        }
    }

    /// Number of items pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of runs spilled so far (observability / tests).
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds one item, spilling a sorted run if the budget is exceeded.
    pub fn push(&mut self, item: T) -> Result<()> {
        self.mem += item.mem_size();
        self.items.push(item);
        self.count += 1;
        if self.mem >= self.budget {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.items.is_empty() {
            return Ok(());
        }
        self.items.sort_unstable();
        let store = (self.temp)()?;
        let mut buf = Vec::with_capacity(256 * 1024);
        let mut off = 0u64;
        for item in self.items.drain(..) {
            item.encode(&mut buf);
            if buf.len() >= 256 * 1024 {
                store.write_at(off, &buf)?;
                off += buf.len() as u64;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            store.write_at(off, &buf)?;
            off += buf.len() as u64;
        }
        self.runs.push((store, off));
        self.mem = 0;
        Ok(())
    }

    /// Drains every item in ascending order through `f`.
    pub fn drain(mut self, mut f: impl FnMut(T) -> Result<()>) -> Result<()> {
        if self.runs.is_empty() {
            self.items.sort_unstable();
            for item in self.items.drain(..) {
                f(item)?;
            }
            return Ok(());
        }
        self.spill()?;
        let mut readers: Vec<RunBuf> = self
            .runs
            .drain(..)
            .map(|(store, end)| RunBuf::new(store, end))
            .collect();
        // Min-heap keyed on (item, run); the run index breaks ties
        // deterministically (items are unique in practice).
        let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if r.remaining() > 0 {
                heap.push(Reverse((T::decode(r)?, i)));
            }
        }
        while let Some(Reverse((item, i))) = heap.pop() {
            f(item)?;
            if readers[i].remaining() > 0 {
                heap.push(Reverse((T::decode(&mut readers[i])?, i)));
            }
        }
        Ok(())
    }
}

/// One Prüfer sequence headed for a segment: its label path through the
/// virtual trie, the per-position fine gaps, and the (local) document
/// id. Ordered by `(path, doc)` — the gaps are payload, not key — so a
/// sort puts every sequence in trie DFS order with ends per node in
/// ascending doc order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// Label path (the LPS symbols).
    pub path: Vec<u32>,
    /// Per-position fine gaps (same length as `path`).
    pub gaps: Vec<u32>,
    /// Local document id within the segment.
    pub doc: u32,
}

impl Ord for PathEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.path, self.doc).cmp(&(&other.path, other.doc))
    }
}

impl PartialOrd for PathEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SortItem for PathEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.path.len() as u32).to_le_bytes());
        for &s in &self.path {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &g in &self.gaps {
            out.extend_from_slice(&g.to_le_bytes());
        }
        out.extend_from_slice(&self.doc.to_le_bytes());
    }

    fn decode(r: &mut RunBuf) -> Result<Self> {
        let len = r.u32()? as usize;
        let mut raw = vec![0u8; len * 8 + 4];
        r.take(&mut raw)?;
        let word = |i: usize| u32::from_le_bytes(raw[i * 4..i * 4 + 4].try_into().unwrap());
        Ok(PathEntry {
            path: (0..len).map(word).collect(),
            gaps: (len..2 * len).map(word).collect(),
            doc: word(2 * len),
        })
    }

    fn mem_size(&self) -> usize {
        std::mem::size_of::<PathEntry>() + self.path.len() * 8
    }
}

/// One Trie-Symbol row of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TagEntry {
    /// Trie symbol.
    pub sym: u32,
    /// LeftPos of the containment range.
    pub left: u64,
    /// RightPos of the containment range.
    pub right: u64,
    /// 1-based LPS position.
    pub level: u32,
    /// Per-node fine MaxGap (`u32::MAX` = unknown).
    pub fine_gap: u32,
}

impl TagEntry {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sym.to_le_bytes());
        out.extend_from_slice(&self.left.to_le_bytes());
        out.extend_from_slice(&self.right.to_le_bytes());
        out.extend_from_slice(&self.level.to_le_bytes());
        out.extend_from_slice(&self.fine_gap.to_le_bytes());
    }

    fn read(b: &[u8]) -> TagEntry {
        TagEntry {
            sym: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            left: u64::from_le_bytes(b[4..12].try_into().unwrap()),
            right: u64::from_le_bytes(b[12..20].try_into().unwrap()),
            level: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            fine_gap: u32::from_le_bytes(b[24..28].try_into().unwrap()),
        }
    }

    fn key(&self) -> (u32, u64) {
        (self.sym, self.left)
    }
}

impl SortItem for TagEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    fn decode(r: &mut RunBuf) -> Result<Self> {
        let mut b = [0u8; TAG_ENTRY_LEN as usize];
        r.take(&mut b)?;
        Ok(TagEntry::read(&b))
    }

    fn mem_size(&self) -> usize {
        std::mem::size_of::<TagEntry>()
    }
}

/// One Docid row of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DocEnd {
    /// LeftPos of the trie node where the sequence ends.
    pub left: u64,
    /// Local document id.
    pub doc: u32,
}

// ---------------------------------------------------------------------------
// Streaming trie labeler
// ---------------------------------------------------------------------------

/// Statistics of the virtual trie a segment build streamed through,
/// bit-compatible with the in-memory `VirtualTrie` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegTrieStats {
    /// Labeled (non-root) trie nodes.
    pub nodes: u64,
    /// Distinct root-to-leaf paths.
    pub leaves: u64,
    /// Sequences inserted.
    pub sequences: u64,
    /// Largest number of sequences sharing one leaf path.
    pub max_path_sharing: u64,
    /// Total length of all sequences.
    pub total_path_len: u64,
}

struct TrieFrame {
    sym: u32,
    level: u32,
    left: u64,
    fine_gap: u32,
    weight: u64,
    has_child: bool,
}

/// Streams `(path, doc)` entries — which **must** arrive in ascending
/// `(path, doc)` order — through a virtual-trie DFS, assigning the same
/// exact labels a bulk `VirtualTrie::assign_ranges(Exact)` would:
/// `left` = DFS first-visit rank (children in symbol order), `right` =
/// max `left` in the subtree, per-node fine gaps max-folded across the
/// sequences passing through. Emits finished tag rows at node pop and
/// doc-end rows in `(left, doc)` order.
struct StreamTrie {
    stack: Vec<TrieFrame>,
    prev_path: Vec<u32>,
    counter: u64,
    stats: SegTrieStats,
}

impl StreamTrie {
    fn new() -> Self {
        StreamTrie {
            stack: Vec::new(),
            prev_path: Vec::new(),
            counter: 0,
            stats: SegTrieStats::default(),
        }
    }

    fn pop(&mut self, emit_tag: &mut impl FnMut(TagEntry) -> Result<()>) -> Result<()> {
        let f = self.stack.pop().expect("pop on empty trie stack");
        if !f.has_child {
            self.stats.leaves += 1;
            if f.weight > self.stats.max_path_sharing {
                self.stats.max_path_sharing = f.weight;
            }
        }
        emit_tag(TagEntry {
            sym: f.sym,
            left: f.left,
            right: self.counter.max(f.left),
            level: f.level,
            fine_gap: f.fine_gap,
        })
    }

    fn insert(
        &mut self,
        e: &PathEntry,
        emit_tag: &mut impl FnMut(TagEntry) -> Result<()>,
        emit_doc: &mut impl FnMut(DocEnd) -> Result<()>,
    ) -> Result<()> {
        debug_assert!(
            (e.path.as_slice(), e.doc) >= (self.prev_path.as_slice(), 0),
            "path entries must arrive sorted"
        );
        self.stats.sequences += 1;
        self.stats.total_path_len += e.path.len() as u64;
        let common = self
            .prev_path
            .iter()
            .zip(e.path.iter())
            .take_while(|(a, b)| a == b)
            .count();
        while self.stack.len() > common {
            self.pop(emit_tag)?;
        }
        // Shared prefix: every sequence through a node folds its gap
        // and counts toward the node's weight.
        for (i, f) in self.stack.iter_mut().enumerate() {
            f.weight += 1;
            if f.fine_gap == u32::MAX {
                f.fine_gap = e.gaps[i];
            } else {
                f.fine_gap = f.fine_gap.max(e.gaps[i]);
            }
        }
        for i in common..e.path.len() {
            if let Some(parent) = self.stack.last_mut() {
                parent.has_child = true;
            }
            self.counter += 1;
            self.stack.push(TrieFrame {
                sym: e.path[i],
                level: (i + 1) as u32,
                left: self.counter,
                fine_gap: e.gaps[i],
                weight: 1,
                has_child: false,
            });
            self.stats.nodes += 1;
        }
        let end_left = self.stack.last().map_or(0, |f| f.left);
        emit_doc(DocEnd {
            left: end_left,
            doc: e.doc,
        })?;
        self.prev_path.clear();
        self.prev_path.extend_from_slice(&e.path);
        Ok(())
    }

    fn finish(mut self, emit_tag: &mut impl FnMut(TagEntry) -> Result<()>) -> Result<SegTrieStats> {
        while !self.stack.is_empty() {
            self.pop(emit_tag)?;
        }
        Ok(self.stats)
    }
}

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq)]
struct Header {
    kind: u8,
    doc_base: u32,
    n_docs: u32,
    n_tag: u64,
    n_doc: u64,
    rec_data_off: u64,
    rec_idx_off: u64,
    tag_off: u64,
    tag_fence_off: u64,
    doc_off: u64,
    doc_fence_off: u64,
    meta_off: u64,
    meta_len: u64,
    crc_off: u64,
    file_len: u64,
}

impl Header {
    /// The version-2 geometry, in one place: every section offset
    /// follows from the three counts, where the record data ends and
    /// how long the meta blob is. The builder writes the header this
    /// returns; [`Header::decode`] refuses one that differs from it.
    /// `None` when the sizes overflow.
    fn lay_out(
        kind: u8,
        doc_base: u32,
        n_docs: u32,
        n_tag: u64,
        n_doc: u64,
        rec_idx_off: u64,
        meta_len: u64,
    ) -> Option<Header> {
        let block = SEG_BLOCK as u64;
        let align = |x: u64| div_ceil(x, block).checked_mul(block);
        let (tag_groups, doc_groups) = (div_ceil(n_tag, TAG_GROUP), div_ceil(n_doc, DOC_GROUP));
        let tag_off = align(rec_idx_off.checked_add((u64::from(n_docs) + 1) * 8)?)?;
        let tag_fence_off = tag_off.checked_add(tag_groups.checked_mul(block)?)?;
        let doc_off = align(tag_fence_off.checked_add(tag_groups * TAG_FENCE_LEN)?)?;
        let doc_fence_off = doc_off.checked_add(doc_groups.checked_mul(block)?)?;
        let meta_off = doc_fence_off.checked_add(doc_groups * DOC_FENCE_LEN)?;
        let crc_off = meta_off.checked_add(meta_len)?;
        let file_len = crc_off.checked_add(div_ceil(crc_off, block).checked_mul(4)?)?;
        Some(Header {
            kind,
            doc_base,
            n_docs,
            n_tag,
            n_doc,
            rec_data_off: SEG_HEADER_LEN,
            rec_idx_off,
            tag_off,
            tag_fence_off,
            doc_off,
            doc_fence_off,
            meta_off,
            meta_len,
            crc_off,
            file_len,
        })
    }

    fn encode(&self) -> [u8; SEG_HEADER_LEN as usize] {
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        h[0..8].copy_from_slice(&SEG_MAGIC);
        h[8..12].copy_from_slice(&SEG_VERSION.to_le_bytes());
        h[12] = self.kind;
        h[16..20].copy_from_slice(&self.doc_base.to_le_bytes());
        h[20..24].copy_from_slice(&self.n_docs.to_le_bytes());
        h[24..32].copy_from_slice(&self.n_tag.to_le_bytes());
        h[32..40].copy_from_slice(&self.n_doc.to_le_bytes());
        h[40..48].copy_from_slice(&self.rec_idx_off.to_le_bytes());
        h[48..56].copy_from_slice(&self.rec_data_off.to_le_bytes());
        h[56..64].copy_from_slice(&self.tag_off.to_le_bytes());
        h[64..72].copy_from_slice(&self.tag_fence_off.to_le_bytes());
        h[72..80].copy_from_slice(&self.doc_off.to_le_bytes());
        h[80..88].copy_from_slice(&self.doc_fence_off.to_le_bytes());
        h[88..96].copy_from_slice(&self.meta_off.to_le_bytes());
        h[96..104].copy_from_slice(&self.meta_len.to_le_bytes());
        h[104..112].copy_from_slice(&self.crc_off.to_le_bytes());
        h[112..120].copy_from_slice(&self.file_len.to_le_bytes());
        let crc = crc32(&h[..120]);
        h[120..124].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Decodes and validates a header: magic, version, CRC, then the
    /// arithmetic — the stored offsets must be exactly what
    /// [`Header::lay_out`] derives from the stored counts, which rules
    /// out sections out of order, overlapping, misaligned, past the
    /// end of the file, or sized differently from their counts. (A
    /// count or `rec_idx_off` can still move within the padding before
    /// the next aligned section without moving it; no read leaves the
    /// file then, and [`SegmentReader::verify`] reports the rows that
    /// disagree.)
    fn decode(h: &[u8]) -> Result<Header> {
        if h[0..8] != SEG_MAGIC {
            return Err(corrupt("bad segment magic".into()));
        }
        let version = u32::from_le_bytes(h[8..12].try_into().unwrap());
        if version != SEG_VERSION {
            return Err(corrupt(format!(
                "segment format version {version} is not supported (this build reads \
                 version {SEG_VERSION}); re-index the source documents"
            )));
        }
        let stored = u32::from_le_bytes(h[120..124].try_into().unwrap());
        if crc32(&h[..120]) != stored {
            return Err(corrupt("segment header CRC mismatch".into()));
        }
        let u64_at = |i: usize| u64::from_le_bytes(h[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(h[i..i + 4].try_into().unwrap());
        let hdr = Header {
            kind: h[12],
            doc_base: u32_at(16),
            n_docs: u32_at(20),
            n_tag: u64_at(24),
            n_doc: u64_at(32),
            rec_idx_off: u64_at(40),
            rec_data_off: u64_at(48),
            tag_off: u64_at(56),
            tag_fence_off: u64_at(64),
            doc_off: u64_at(72),
            doc_fence_off: u64_at(80),
            meta_off: u64_at(88),
            meta_len: u64_at(96),
            crc_off: u64_at(104),
            file_len: u64_at(112),
        };
        let want = Header::lay_out(
            hdr.kind,
            hdr.doc_base,
            hdr.n_docs,
            hdr.n_tag,
            hdr.n_doc,
            hdr.rec_idx_off,
            hdr.meta_len,
        );
        if hdr.rec_idx_off < SEG_HEADER_LEN || want.as_ref() != Some(&hdr) {
            return Err(corrupt(
                "segment header geometry is inconsistent with its counts".into(),
            ));
        }
        Ok(hdr)
    }
}

/// Buffered sequential section writer over a [`RawStore`].
struct SectionWriter<'a> {
    store: &'a dyn RawStore,
    off: u64,
    buf: Vec<u8>,
}

impl<'a> SectionWriter<'a> {
    fn new(store: &'a dyn RawStore, off: u64) -> Self {
        SectionWriter {
            store,
            off,
            buf: Vec::with_capacity(256 * 1024),
        }
    }

    fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= 256 * 1024 {
            self.flush()?;
        }
        Ok(())
    }

    /// Zero-fills up to the next [`SEG_BLOCK`] boundary (a no-op on
    /// one).
    fn pad_to_block(&mut self) {
        let pos = self.off + self.buf.len() as u64;
        let pad = (SEG_BLOCK as u64 - pos % SEG_BLOCK as u64) % SEG_BLOCK as u64;
        self.buf.resize(self.buf.len() + pad as usize, 0);
    }

    fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.store.write_at(self.off, &self.buf)?;
            self.off += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> Result<u64> {
        self.flush()?;
        Ok(self.off)
    }
}

/// Finishes an immutable file whose content ends at `crc_off`: one
/// sequential pass appends the CRC table (one CRC-32 per [`SEG_BLOCK`]
/// of everything before it, the header included), then the file is cut
/// to `file_len` and synced.
fn seal(out: &dyn RawStore, crc_off: u64, file_len: u64) -> Result<()> {
    let mut w = SectionWriter::new(out, crc_off);
    let mut pos = 0u64;
    let mut chunk = vec![0u8; 64 * SEG_BLOCK];
    while pos < crc_off {
        let want = (crc_off - pos).min(chunk.len() as u64) as usize;
        out.read_at(pos, &mut chunk[..want])?;
        for block in chunk[..want].chunks(SEG_BLOCK) {
            w.push(&crc32(block).to_le_bytes())?;
        }
        pos += want as u64;
    }
    w.finish()?;
    out.set_len(file_len)?;
    out.sync()
}

/// Checks every content block of a [`seal`]ed file against its CRC
/// table, reading `chunk.len()` bytes at a time (no cache). Returns the
/// number of blocks verified.
fn check_crc_table(store: &dyn RawStore, crc_off: u64, chunk: &mut [u8]) -> Result<u64> {
    let n_blocks = div_ceil(crc_off, SEG_BLOCK as u64);
    let mut table = vec![0u8; (n_blocks * 4) as usize];
    store.read_at(crc_off, &mut table)?;
    let mut pos = 0u64;
    let mut b = 0usize;
    while pos < crc_off {
        let want = (crc_off - pos).min(chunk.len() as u64) as usize;
        store.read_at(pos, &mut chunk[..want])?;
        for block in chunk[..want].chunks(SEG_BLOCK) {
            let stored = u32::from_le_bytes(table[b * 4..b * 4 + 4].try_into().unwrap());
            if crc32(block) != stored {
                return Err(corrupt(format!("segment block {b} CRC mismatch")));
            }
            b += 1;
        }
        pos += want as u64;
    }
    Ok(b as u64)
}

/// Writes one immutable segment: stream documents in (records go
/// straight to the output file, label paths to the external sorter),
/// then [`SegmentBuilder::finish`] merges the runs through the
/// streaming trie and lays out the remaining sections.
pub struct SegmentBuilder {
    out: Box<dyn RawStore>,
    temp: Arc<Mutex<TempFactory>>,
    kind: u8,
    doc_base: u32,
    run_budget: usize,
    sorter: ExternalSorter<PathEntry>,
    rec_offsets: Vec<u64>,
    rec_writer_off: u64,
    rec_buf: Vec<u8>,
}

/// Forwards a shared temp factory (the builder's two sort phases run
/// strictly in sequence but each sorter owns its own handle).
fn fwd_temp(shared: &Arc<Mutex<TempFactory>>) -> TempFactory {
    let s = Arc::clone(shared);
    Box::new(move || (s.lock())())
}

impl SegmentBuilder {
    /// A builder writing to `out`, spilling sort runs via `temp`, with
    /// roughly `run_mem_bytes` of in-memory sort buffer per phase.
    pub fn new(
        out: Box<dyn RawStore>,
        temp: TempFactory,
        kind: u8,
        doc_base: u32,
        run_mem_bytes: usize,
    ) -> Self {
        let temp = Arc::new(Mutex::new(temp));
        let sorter = ExternalSorter::new(run_mem_bytes, fwd_temp(&temp));
        SegmentBuilder {
            out,
            temp,
            kind,
            doc_base,
            run_budget: run_mem_bytes,
            sorter,
            rec_offsets: vec![0],
            rec_writer_off: SEG_HEADER_LEN,
            rec_buf: Vec::with_capacity(256 * 1024),
        }
    }

    /// Adds one document: its opaque refinement record and its label
    /// path + fine gaps. Returns the local document id.
    pub fn add_doc(&mut self, record: &[u8], path: Vec<u32>, gaps: Vec<u32>) -> Result<u32> {
        debug_assert_eq!(path.len(), gaps.len());
        let doc = (self.rec_offsets.len() - 1) as u32;
        self.rec_buf.extend_from_slice(record);
        if self.rec_buf.len() >= 256 * 1024 {
            self.out.write_at(self.rec_writer_off, &self.rec_buf)?;
            self.rec_writer_off += self.rec_buf.len() as u64;
            self.rec_buf.clear();
        }
        let last = *self.rec_offsets.last().unwrap();
        self.rec_offsets.push(last + record.len() as u64);
        self.sorter.push(PathEntry { path, gaps, doc })?;
        Ok(doc)
    }

    /// Number of documents added so far.
    pub fn doc_count(&self) -> u32 {
        (self.rec_offsets.len() - 1) as u32
    }

    /// Merges the runs, labels the trie, writes every section, the
    /// header, and the CRC table, then syncs. `make_meta` receives the
    /// trie statistics and returns the opaque meta blob.
    pub fn finish(
        mut self,
        make_meta: impl FnOnce(&SegTrieStats) -> Vec<u8>,
    ) -> Result<SegTrieStats> {
        // Flush the record tail, then the record index.
        if !self.rec_buf.is_empty() {
            self.out.write_at(self.rec_writer_off, &self.rec_buf)?;
            self.rec_writer_off += self.rec_buf.len() as u64;
            self.rec_buf.clear();
        }
        let n_docs = (self.rec_offsets.len() - 1) as u32;
        let rec_idx_off = self.rec_writer_off;
        // One sequential writer from here to the CRC table; the header
        // offsets come from `Header::lay_out` and must agree with it.
        let mut w = SectionWriter::new(&*self.out, rec_idx_off);
        for &o in &self.rec_offsets {
            w.push(&o.to_le_bytes())?;
        }
        w.pad_to_block();

        // Merge path runs through the streaming trie. Tag rows come out
        // in pop (postorder) order and need a second sort by
        // (sym, left); doc ends come out already sorted and are tiny
        // (one per document), so they stay in memory.
        let mut tag_sorter: ExternalSorter<TagEntry> =
            ExternalSorter::new(self.run_budget, fwd_temp(&self.temp));
        let mut doc_ends: Vec<DocEnd> = Vec::with_capacity(n_docs as usize);
        let mut trie = StreamTrie::new();
        {
            let mut emit_tag = |t: TagEntry| tag_sorter.push(t);
            let mut emit_doc = |d: DocEnd| {
                debug_assert!(doc_ends.last().map_or(true, |p| *p < d));
                doc_ends.push(d);
                Ok(())
            };
            self.sorter
                .drain(|e| trie.insert(&e, &mut emit_tag, &mut emit_doc))?;
        }
        let mut emit_tag = |t: TagEntry| tag_sorter.push(t);
        let stats = trie.finish(&mut emit_tag)?;

        // Tag entries, one zero-padded block per fence group, then the
        // fences (the first key of every group).
        let n_tag = tag_sorter.len();
        let mut fences: Vec<u8> = Vec::new();
        let mut i = 0u64;
        let mut row = Vec::with_capacity(TAG_ENTRY_LEN as usize);
        let mut prev_key: Option<(u32, u64)> = None;
        tag_sorter.drain(|t| {
            debug_assert!(prev_key.map_or(true, |p| p < t.key()), "duplicate tag key");
            prev_key = Some(t.key());
            row.clear();
            t.write(&mut row);
            if i % TAG_GROUP == 0 {
                w.pad_to_block();
                fences.extend_from_slice(&row[..TAG_FENCE_LEN as usize]);
            }
            i += 1;
            w.push(&row)
        })?;
        w.pad_to_block();
        w.push(&fences)?;
        w.pad_to_block();

        // Doc ends + fences, laid out the same way.
        let n_doc = doc_ends.len() as u64;
        fences.clear();
        for (i, d) in doc_ends.iter().enumerate() {
            let mut row = [0u8; DOC_ENTRY_LEN as usize];
            row[0..8].copy_from_slice(&d.left.to_le_bytes());
            row[8..12].copy_from_slice(&d.doc.to_le_bytes());
            if i as u64 % DOC_GROUP == 0 {
                w.pad_to_block();
                fences.extend_from_slice(&row[..DOC_FENCE_LEN as usize]);
            }
            w.push(&row)?;
        }
        w.pad_to_block();
        w.push(&fences)?;

        // Meta, header, CRC table.
        let meta = make_meta(&stats);
        w.push(&meta)?;
        let crc_off = w.finish()?;
        let header = Header::lay_out(
            self.kind,
            self.doc_base,
            n_docs,
            n_tag,
            n_doc,
            rec_idx_off,
            meta.len() as u64,
        )
        .ok_or_else(|| corrupt("segment too large".into()))?;
        assert_eq!(header.crc_off, crc_off, "segment writer left its layout");
        let file_len = header.file_len;
        self.out.write_at(0, &header.encode())?;

        seal(&*self.out, crc_off, file_len)?;
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Segment reader
// ---------------------------------------------------------------------------

struct Cache {
    blocks: HashMap<u64, (u64, Arc<Vec<u8>>)>,
    tick: u64,
}

/// An immutable file read in [`SEG_BLOCK`] units through a cache of
/// [`CACHE_BLOCKS`] blocks, never touching the buffer pool. Every block
/// asked for is one `seg_block_read` in `stats`, every miss one
/// `seg_block_fetch`: the one place both [`SegmentReader`] and
/// [`ValueRunReader`] count their I/O.
struct BlockFile {
    store: Box<dyn RawStore>,
    stats: Arc<IoStats>,
    len: u64,
    cache: Mutex<Cache>,
}

impl BlockFile {
    fn new(store: Box<dyn RawStore>, stats: Arc<IoStats>, len: u64) -> Self {
        BlockFile {
            store,
            stats,
            len,
            cache: Mutex::new(Cache {
                blocks: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// Copies `dst.len()` bytes at `off` out of the block cache,
    /// counting one logical segment read per block touched and one
    /// fetch per miss.
    fn read_into(&self, mut off: u64, mut dst: &mut [u8]) -> Result<()> {
        while !dst.is_empty() {
            let block = self.block(off / SEG_BLOCK as u64)?;
            let lo = (off % SEG_BLOCK as u64) as usize;
            let n = dst.len().min(block.len().saturating_sub(lo));
            if n == 0 {
                return Err(corrupt(format!("segment read past end at {off}")));
            }
            let (head, tail) = dst.split_at_mut(n);
            head.copy_from_slice(&block[lo..lo + n]);
            dst = tail;
            off += n as u64;
        }
        Ok(())
    }

    fn block(&self, idx: u64) -> Result<Arc<Vec<u8>>> {
        self.stats.record_seg_block_read();
        let mut c = self.cache.lock();
        c.tick += 1;
        let tick = c.tick;
        if let Some((t, block)) = c.blocks.get_mut(&idx) {
            *t = tick;
            return Ok(Arc::clone(block));
        }
        drop(c);
        self.stats.record_seg_block_fetch();
        let start = idx.saturating_mul(SEG_BLOCK as u64);
        let len = (SEG_BLOCK as u64).min(self.len.saturating_sub(start)) as usize;
        if len == 0 {
            return Err(corrupt(format!("segment block {idx} out of range")));
        }
        let mut buf = vec![0u8; len];
        self.store.read_at(start, &mut buf)?;
        let block = Arc::new(buf);
        let mut c = self.cache.lock();
        if c.blocks.len() >= CACHE_BLOCKS {
            if let Some((&victim, _)) = c.blocks.iter().min_by_key(|(_, (t, _))| *t) {
                c.blocks.remove(&victim);
            }
        }
        c.blocks.insert(idx, (tick, Arc::clone(&block)));
        Ok(block)
    }
}

/// Summary returned by [`SegmentReader::verify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCheck {
    /// Content blocks whose CRC was verified.
    pub blocks: u64,
    /// Tag rows checked for strict `(sym, left)` order.
    pub tag_entries: u64,
    /// Doc-end rows checked for strict `(left, doc)` order.
    pub doc_entries: u64,
    /// Per-document records with consistent offsets.
    pub records: u64,
}

/// One fence-grouped entry section of an open segment: group `g` is
/// block `first_block + g` of the file, holds `rows_in(g)` rows of
/// `row_len` bytes from offset 0, and starts with the key `fences[g]`.
/// `key` decodes the search key from a row (or a fence: a fence is the
/// key prefix of its group's first row).
struct Section<K> {
    fences: Vec<K>,
    first_block: u64,
    n_rows: u64,
    group: u64,
    row_len: usize,
    key: fn(&[u8]) -> K,
}

impl<K> Section<K> {
    /// Reads the `n_groups` fences of a section in one sequential read
    /// at `off`. The header was validated against the file length, so
    /// the array lies inside the file and is bounded by its size.
    fn read_fences(
        store: &dyn RawStore,
        off: u64,
        fence_len: u64,
        n_groups: u64,
        key: fn(&[u8]) -> K,
    ) -> Result<Vec<K>> {
        let mut raw = vec![0u8; (n_groups * fence_len) as usize];
        store.read_at(off, &mut raw)?;
        Ok(raw.chunks_exact(fence_len as usize).map(key).collect())
    }

    fn rows_in(&self, g: usize) -> usize {
        (self.n_rows - g as u64 * self.group).min(self.group) as usize
    }
}

/// Read handle over one immutable segment file: direct [`RawStore`]
/// reads through a tiny per-segment block cache, never touching the
/// buffer pool. Both fence arrays are resident, so a lookup is one
/// in-memory binary search plus one binary search over the encoded
/// rows of one cached block.
pub struct SegmentReader {
    file: BlockFile,
    hdr: Header,
    tags: Section<(u32, u64)>,
    docs: Section<u64>,
}

impl SegmentReader {
    /// Opens a segment: validates the header against the file and
    /// loads both fence arrays (16 bytes of memory per 4 KiB of
    /// entries). Segment block reads are recorded into `stats`.
    pub fn open(store: Box<dyn RawStore>, stats: Arc<IoStats>) -> Result<SegmentReader> {
        let len = store.len()?;
        if len < SEG_HEADER_LEN {
            return Err(corrupt(format!("segment file too short ({len} bytes)")));
        }
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        store.read_at(0, &mut h)?;
        let hdr = Header::decode(&h)?;
        if hdr.file_len != len {
            return Err(corrupt(format!(
                "segment length mismatch: header says {}, file has {len}",
                hdr.file_len
            )));
        }
        let tags = Section {
            fences: Section::read_fences(
                &*store,
                hdr.tag_fence_off,
                TAG_FENCE_LEN,
                div_ceil(hdr.n_tag, TAG_GROUP),
                tag_key,
            )?,
            first_block: hdr.tag_off / SEG_BLOCK as u64,
            n_rows: hdr.n_tag,
            group: TAG_GROUP,
            row_len: TAG_ENTRY_LEN as usize,
            key: tag_key,
        };
        let docs = Section {
            fences: Section::read_fences(
                &*store,
                hdr.doc_fence_off,
                DOC_FENCE_LEN,
                div_ceil(hdr.n_doc, DOC_GROUP),
                doc_key,
            )?,
            first_block: hdr.doc_off / SEG_BLOCK as u64,
            n_rows: hdr.n_doc,
            group: DOC_GROUP,
            row_len: DOC_ENTRY_LEN as usize,
            key: doc_key,
        };
        Ok(SegmentReader {
            file: BlockFile::new(store, stats, len),
            hdr,
            tags,
            docs,
        })
    }

    /// Segment flavor byte ([`SEG_KIND_RP`] / [`SEG_KIND_EP`]).
    pub fn kind(&self) -> u8 {
        self.hdr.kind
    }

    /// First global document id covered by this segment.
    pub fn doc_base(&self) -> u32 {
        self.hdr.doc_base
    }

    /// Number of documents in this segment.
    pub fn n_docs(&self) -> u32 {
        self.hdr.n_docs
    }

    /// Number of Trie-Symbol rows.
    pub fn n_tag_entries(&self) -> u64 {
        self.hdr.n_tag
    }

    /// Number of Docid rows.
    pub fn n_doc_entries(&self) -> u64 {
        self.hdr.n_doc
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.hdr.file_len
    }

    /// Bytes of memory the two resident fence arrays occupy.
    pub fn fence_bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.tags.fences[..])
            + std::mem::size_of_val(&self.docs.fences[..])) as u64
    }

    /// The one lookup both scans share. Keys ascend through the
    /// section, `before` holds on a prefix of them (the rows below the
    /// range) and `past` on a suffix (the rows above it); every row in
    /// between goes to `visit` still encoded, in key order. One binary
    /// search over the resident fences finds the group holding the
    /// first such row, one over that block's rows finds the row, and a
    /// following block is touched only if its fence is not `past`.
    fn scan<K: Copy>(
        &self,
        sec: &Section<K>,
        before: impl Fn(K) -> bool,
        past: impl Fn(K) -> bool,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<()> {
        let first = sec.fences.partition_point(|&k| before(k)).saturating_sub(1);
        for g in first..sec.fences.len() {
            if past(sec.fences[g]) {
                break;
            }
            let block = self.file.block(sec.first_block + g as u64)?;
            let n = sec.rows_in(g);
            let row = |i: usize| &block[i * sec.row_len..(i + 1) * sec.row_len];
            // Later groups start inside the range: their fence is
            // neither `before` nor `past`.
            let (mut lo, mut hi) = (0, if g == first { n } else { 0 });
            while lo < hi {
                let mid = (lo + hi) / 2;
                if before((sec.key)(row(mid))) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            for i in lo..n {
                if past((sec.key)(row(i))) {
                    return Ok(());
                }
                visit(row(i));
            }
        }
        Ok(())
    }

    /// Range query on the Trie-Symbol section: rows with this `sym` and
    /// `left` in `(ql, qr]`, in key order — the segment-side mirror of
    /// the B⁺-tree `scan_tag_range`.
    pub fn scan_tag_range(&self, sym: u32, ql: u64, qr: u64) -> Result<Vec<(u64, u64, u32, u32)>> {
        let mut hits = Vec::new();
        self.scan(
            &self.tags,
            |k| k <= (sym, ql),
            |k| k > (sym, qr),
            |row| {
                let e = TagEntry::read(row);
                hits.push((e.left, e.right, e.level, e.fine_gap));
            },
        )?;
        Ok(hits)
    }

    /// Range query on the Docid section: local doc ids whose end-node
    /// left is in `[left, right]`, in `(left, doc)` order.
    pub fn scan_docids(&self, left: u64, right: u64, out: &mut impl FnMut(u32)) -> Result<()> {
        self.scan(
            &self.docs,
            |k| k < left,
            |k| k > right,
            |row| out(u32::from_le_bytes(row[8..12].try_into().unwrap())),
        )
    }

    /// Reads the refinement record of local document `doc`.
    pub fn record(&self, doc: u32) -> Result<Vec<u8>> {
        if doc >= self.hdr.n_docs {
            return Err(corrupt(format!(
                "record {doc} out of range (segment holds {})",
                self.hdr.n_docs
            )));
        }
        let mut idx = [0u8; 16];
        self.file
            .read_into(self.hdr.rec_idx_off + u64::from(doc) * 8, &mut idx)?;
        let a = u64::from_le_bytes(idx[0..8].try_into().unwrap());
        let b = u64::from_le_bytes(idx[8..16].try_into().unwrap());
        if b < a || b > self.hdr.rec_idx_off - self.hdr.rec_data_off {
            return Err(corrupt(format!("record {doc} has corrupt offsets")));
        }
        let mut rec = vec![0u8; (b - a) as usize];
        self.file.read_into(self.hdr.rec_data_off + a, &mut rec)?;
        Ok(rec)
    }

    /// The opaque meta blob.
    pub fn meta(&self) -> Result<Vec<u8>> {
        let mut meta = vec![0u8; self.hdr.meta_len as usize];
        self.file.read_into(self.hdr.meta_off, &mut meta)?;
        Ok(meta)
    }

    /// Full integrity check: every content block against the CRC
    /// table, record-index monotonicity, strict sort order of both
    /// entry sections, each group's first key against the resident
    /// fence, and every pad byte zero (the header, and with it the
    /// block alignment of both sections, was validated at open). Reads
    /// bypass the cache (sequential, one pass).
    pub fn verify(&self) -> Result<SegmentCheck> {
        let mut check = SegmentCheck::default();
        let store = &*self.file.store;
        let mut chunk = vec![0u8; 64 * SEG_BLOCK];
        check.blocks = check_crc_table(store, self.hdr.crc_off, &mut chunk)?;
        // Record index monotone and bounded.
        let rec_len = self.hdr.rec_idx_off - self.hdr.rec_data_off;
        let mut idx_bytes = vec![0u8; (self.hdr.n_docs as usize + 1) * 8];
        store.read_at(self.hdr.rec_idx_off, &mut idx_bytes)?;
        let mut prev = 0u64;
        for (i, c) in idx_bytes.chunks_exact(8).enumerate() {
            let o = u64::from_le_bytes(c.try_into().unwrap());
            if o < prev || o > rec_len {
                return Err(corrupt(format!("record index entry {i} out of order")));
            }
            prev = o;
        }
        if prev != rec_len {
            return Err(corrupt(
                "record data length disagrees with record index".into(),
            ));
        }
        check.records = self.hdr.n_docs as u64;
        // The two alignment gaps.
        let idx_end = self.hdr.rec_idx_off + idx_bytes.len() as u64;
        let fence_end = self.hdr.tag_fence_off + self.tags.fences.len() as u64 * TAG_FENCE_LEN;
        for (from, to) in [(idx_end, self.hdr.tag_off), (fence_end, self.hdr.doc_off)] {
            let gap = &mut chunk[..(to - from) as usize];
            store.read_at(from, gap)?;
            if gap.iter().any(|&b| b != 0) {
                return Err(corrupt(format!("alignment padding at {from} is not zero")));
            }
        }
        // Tag section: strict (sym, left) ascending.
        let mut prev_key: Option<(u32, u64)> = None;
        self.verify_section(&self.tags, "tag", &mut chunk, |n, row| {
            let key = tag_key(row);
            if prev_key.map_or(false, |p| key <= p) {
                return Err(corrupt(format!("tag entry {n} out of order")));
            }
            prev_key = Some(key);
            Ok(())
        })?;
        check.tag_entries = self.hdr.n_tag;
        // Doc section: strict (left, doc) ascending, docs in range.
        let mut prev_doc: Option<(u64, u32)> = None;
        self.verify_section(&self.docs, "doc", &mut chunk, |n, row| {
            let doc = u32::from_le_bytes(row[8..12].try_into().unwrap());
            if prev_doc.map_or(false, |p| (doc_key(row), doc) <= p) {
                return Err(corrupt(format!("doc entry {n} out of order")));
            }
            if doc >= self.hdr.n_docs {
                return Err(corrupt(format!("doc entry {n} references document {doc}")));
            }
            prev_doc = Some((doc_key(row), doc));
            Ok(())
        })?;
        check.doc_entries = self.hdr.n_doc;
        Ok(check)
    }

    /// One sequential pass over a section, `chunk` blocks at a time:
    /// each group's first key must equal its resident fence, its pad
    /// bytes must be zero, and every row goes to `check` with its
    /// index.
    fn verify_section<K: Copy + PartialEq>(
        &self,
        sec: &Section<K>,
        name: &str,
        chunk: &mut [u8],
        mut check: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let per_read = chunk.len() / SEG_BLOCK;
        for (c, fences) in sec.fences.chunks(per_read).enumerate() {
            let g0 = c * per_read;
            let bytes = &mut chunk[..fences.len() * SEG_BLOCK];
            self.file
                .store
                .read_at((sec.first_block + g0 as u64) * SEG_BLOCK as u64, bytes)?;
            for (j, (block, &fence)) in bytes.chunks_exact(SEG_BLOCK).zip(fences).enumerate() {
                let g = g0 + j;
                let (rows, pad) = block.split_at(sec.rows_in(g) * sec.row_len);
                if (sec.key)(rows) != fence {
                    return Err(corrupt(format!("{name} fence {g} disagrees")));
                }
                if pad.iter().any(|&b| b != 0) {
                    return Err(corrupt(format!("{name} group {g} padding is not zero")));
                }
                for (i, row) in rows.chunks_exact(sec.row_len).enumerate() {
                    check(g as u64 * sec.group + i as u64, row)?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Value runs
// ---------------------------------------------------------------------------
//
// The value index of one segment tier: every `(opclass key, posting)` of
// exactly the tier's documents, sorted and packed, in a file next to the
// tier's RP and EP segments.
//
// ```text
// +---------+------------+------------+------------+------------+----------+----------+-----------+
// | block 0 | num blocks | str blocks | num fences | str fences | num tags | str tags | CRC table |
// +---------+------------+------------+------------+------------+----------+----------+-----------+
// ```
//
// * **block 0** — the 128-byte header (magic `PRIXVXR\0`, version,
//   kind, document range, per-section counts, the derived offsets, its
//   CRC-32), zero-padded to one block. `VxHeader::lay_out` derives every
//   offset from the counts; a header that disagrees is refused at open.
// * **num / str blocks** — one section per opclass. A block is
//   `n: u16`, then `n` entries `klen: u16 | key | doc: u32 | post: u32`
//   in ascending `(key, doc, post)` order, then zeros. An entry never
//   spans a block. Keys are opaque here but for their 4-byte big-endian
//   tag prefix; the core layer writes the bytes its B⁺-trees use.
// * **fences** — `klen | key` of every block's first entry, resident
//   after open: one binary search picks the block a scan starts in.
// * **tags** — the sorted distinct tag prefixes of each section,
//   resident after open: a scan for a tag the run does not hold returns
//   before touching a block.
// * **CRC table** — as in a segment (`seal`).

/// `kind` byte of a value run (its header and its manifest row).
pub const SEG_KIND_VX: u8 = 2;
/// Value-run file magic (first 8 bytes).
pub const VX_MAGIC: [u8; 8] = *b"PRIXVXR\0";
/// Value-run format version.
pub const VX_VERSION: u32 = 1;
/// Key length of the numeric section: tag(4) ++ encoded value(8).
pub const VX_NUM_KEY_LEN: usize = 12;
/// Longest key a run stores: tag(4) ++ 256 value bytes.
pub const VX_MAX_KEY_LEN: usize = 260;
/// Shortest key: the tag prefix alone.
const VX_MIN_KEY_LEN: usize = 4;
/// Bytes of an entry besides its key: klen(2) doc(4) post(4).
const VX_ENTRY_OVERHEAD: usize = 10;
/// The most entries one block holds (minimal keys).
const VX_MAX_PER_BLOCK: u64 = ((SEG_BLOCK - 2) / (VX_MIN_KEY_LEN + VX_ENTRY_OVERHEAD)) as u64;

/// The two sorted sections of a value run, one per opclass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VxSection {
    /// Order-preserving numeric keys, all [`VX_NUM_KEY_LEN`] long.
    Num = 0,
    /// Raw string keys.
    Str = 1,
}

impl VxSection {
    /// Whether a key of `len` bytes can belong to this section.
    pub fn key_len_ok(self, len: usize) -> bool {
        match self {
            VxSection::Num => len == VX_NUM_KEY_LEN,
            VxSection::Str => (VX_MIN_KEY_LEN..=VX_MAX_KEY_LEN).contains(&len),
        }
    }

    /// The section's name in error messages.
    pub fn name(self) -> &'static str {
        match self {
            VxSection::Num => "numeric",
            VxSection::Str => "string",
        }
    }
}

/// The last entry of a section seen so far, for the strict
/// `(key, doc, post)` order both the builder and `verify` insist on.
#[derive(Default)]
struct VxLast {
    key: Vec<u8>,
    at: Option<(u32, u32)>,
}

impl VxLast {
    /// Moves on to `(key, doc, post)`; `false` (and no move) when that
    /// entry does not sort strictly after the last one.
    fn advance(&mut self, key: &[u8], doc: u32, post: u32) -> bool {
        if let Some(at) = self.at {
            if (self.key.as_slice(), at) >= (key, (doc, post)) {
                return false;
            }
        }
        self.key.clear();
        self.key.extend_from_slice(key);
        self.at = Some((doc, post));
        true
    }
}

/// Big-endian tag prefix of a key (or of a bound shorter than one,
/// zero-extended: it then sorts before every key of that tag).
fn vx_tag(key: &[u8]) -> u32 {
    let mut t = [0u8; 4];
    let n = key.len().min(4);
    t[..n].copy_from_slice(&key[..n]);
    u32::from_be_bytes(t)
}

/// One posting headed for a value run, ordered the way the run stores
/// them: by section, then key bytes, then `(doc, post)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct VxEntry {
    /// Which opclass section the posting belongs to.
    pub section: VxSection,
    /// Tag-prefixed opclass key.
    pub key: Vec<u8>,
    /// Global document id.
    pub doc: u32,
    /// The leaf's postorder number in its document.
    pub post: u32,
}

impl SortItem for VxEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.section as u8);
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.doc.to_le_bytes());
        out.extend_from_slice(&self.post.to_le_bytes());
    }

    fn decode(r: &mut RunBuf) -> Result<Self> {
        let mut head = [0u8; 3];
        r.take(&mut head)?;
        let section = match head[0] {
            0 => VxSection::Num,
            _ => VxSection::Str,
        };
        let mut key = vec![0u8; usize::from(u16::from_le_bytes([head[1], head[2]]))];
        r.take(&mut key)?;
        Ok(VxEntry {
            section,
            key,
            doc: r.u32()?,
            post: r.u32()?,
        })
    }

    fn mem_size(&self) -> usize {
        std::mem::size_of::<VxEntry>() + self.key.len()
    }
}

/// Counts of one section, from which its place in the file follows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct VxGeom {
    postings: u64,
    blocks: u64,
    fence_len: u64,
    tags: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct VxHeader {
    doc_base: u32,
    n_docs: u32,
    secs: [VxGeom; 2],
    fence_off: u64,
    crc_off: u64,
    file_len: u64,
}

impl VxHeader {
    /// The run geometry, in one place (the [`Header::lay_out`] rule):
    /// data blocks from block 1, both fence sections, both tag
    /// directories, the CRC table. `None` when the sizes overflow.
    fn lay_out(doc_base: u32, n_docs: u32, secs: [VxGeom; 2]) -> Option<VxHeader> {
        let block = SEG_BLOCK as u64;
        let data_blocks = secs[0].blocks.checked_add(secs[1].blocks)?;
        let fence_off = data_blocks.checked_add(1)?.checked_mul(block)?;
        let mut crc_off = fence_off;
        for s in &secs {
            crc_off = crc_off
                .checked_add(s.fence_len)?
                .checked_add(s.tags.checked_mul(4)?)?;
        }
        let file_len = crc_off.checked_add(div_ceil(crc_off, block).checked_mul(4)?)?;
        Some(VxHeader {
            doc_base,
            n_docs,
            secs,
            fence_off,
            crc_off,
            file_len,
        })
    }

    fn encode(&self) -> [u8; SEG_HEADER_LEN as usize] {
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        h[0..8].copy_from_slice(&VX_MAGIC);
        h[8..12].copy_from_slice(&VX_VERSION.to_le_bytes());
        h[12] = SEG_KIND_VX;
        h[16..20].copy_from_slice(&self.doc_base.to_le_bytes());
        h[20..24].copy_from_slice(&self.n_docs.to_le_bytes());
        let words = self
            .secs
            .iter()
            .flat_map(|s| [s.postings, s.blocks, s.fence_len, s.tags])
            .chain([self.fence_off, self.crc_off, self.file_len]);
        for (i, w) in words.enumerate() {
            h[24 + i * 8..32 + i * 8].copy_from_slice(&w.to_le_bytes());
        }
        let crc = crc32(&h[..120]);
        h[120..124].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Decodes and validates a header: magic, version, kind, CRC, then
    /// the arithmetic — the stored offsets must be what
    /// [`VxHeader::lay_out`] derives from the stored counts, and the
    /// counts must be ones a builder can produce (every block holds at
    /// least one entry and at most [`VX_MAX_PER_BLOCK`], every fence is
    /// one key, a section with postings has a tag).
    fn decode(h: &[u8]) -> Result<VxHeader> {
        if h[0..8] != VX_MAGIC {
            return Err(corrupt("bad value-run magic".into()));
        }
        let version = u32::from_le_bytes(h[8..12].try_into().unwrap());
        if version != VX_VERSION || h[12] != SEG_KIND_VX {
            return Err(corrupt(format!(
                "value-run format version {version} (kind {}) is not supported; \
                 re-index the source documents",
                h[12]
            )));
        }
        let stored = u32::from_le_bytes(h[120..124].try_into().unwrap());
        if crc32(&h[..120]) != stored {
            return Err(corrupt("value-run header CRC mismatch".into()));
        }
        let u32_at = |i: usize| u32::from_le_bytes(h[i..i + 4].try_into().unwrap());
        let word = |i: usize| u64::from_le_bytes(h[24 + i * 8..32 + i * 8].try_into().unwrap());
        let sec = |i: usize| VxGeom {
            postings: word(i),
            blocks: word(i + 1),
            fence_len: word(i + 2),
            tags: word(i + 3),
        };
        let hdr = VxHeader {
            doc_base: u32_at(16),
            n_docs: u32_at(20),
            secs: [sec(0), sec(4)],
            fence_off: word(8),
            crc_off: word(9),
            file_len: word(10),
        };
        let plausible = |s: &VxGeom| {
            let fence = |key: usize| s.blocks.checked_mul((2 + key) as u64);
            s.blocks <= s.postings
                && Some(s.postings) <= s.blocks.checked_mul(VX_MAX_PER_BLOCK)
                && fence(VX_MIN_KEY_LEN) <= Some(s.fence_len)
                && Some(s.fence_len) <= fence(VX_MAX_KEY_LEN)
                && s.tags <= s.postings
                && (s.tags == 0) == (s.postings == 0)
        };
        let want = VxHeader::lay_out(hdr.doc_base, hdr.n_docs, hdr.secs);
        if want.as_ref() != Some(&hdr) || !hdr.secs.iter().all(plausible) {
            return Err(corrupt(
                "value-run header geometry is inconsistent with its counts".into(),
            ));
        }
        Ok(hdr)
    }
}

/// The entries of one value-run block, still encoded: `(key, posting)`
/// with the posting's eight bytes as the B⁺-tree stores them. A count
/// or key length that leads past the block is an error, not a panic.
struct VxEntries<'a> {
    block: &'a [u8],
    at: usize,
    left: usize,
}

impl<'a> VxEntries<'a> {
    fn new(block: &'a [u8]) -> Result<Self> {
        if block.len() != SEG_BLOCK {
            return Err(corrupt("value-run block is cut short".into()));
        }
        Ok(VxEntries {
            block,
            at: 2,
            left: usize::from(u16::from_le_bytes([block[0], block[1]])),
        })
    }

    /// What follows the entries read so far (the padding, once the
    /// iterator is drained).
    fn rest(&self) -> &'a [u8] {
        &self.block[self.at..]
    }
}

impl<'a> Iterator for VxEntries<'a> {
    type Item = Result<(&'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let b = self.block;
        let entry = b.get(self.at..self.at + 2).and_then(|l| {
            let key_end = self.at + 2 + usize::from(u16::from_le_bytes([l[0], l[1]]));
            Some((b.get(self.at + 2..key_end)?, b.get(key_end..key_end + 8)?))
        });
        match entry {
            Some((key, posting)) if key.len() >= VX_MIN_KEY_LEN => {
                self.at += 2 + key.len() + 8;
                Some(Ok((key, posting)))
            }
            _ => {
                self.left = 0;
                Some(Err(corrupt("value-run entry runs past its block".into())))
            }
        }
    }
}

/// One section while a [`ValueRunBuilder`] fills it.
#[derive(Default)]
struct VxSecBuild {
    postings: u64,
    blocks: u64,
    fences: Vec<u8>,
    tags: Vec<u32>,
}

/// Writes one value run. Entries must arrive in the order the run
/// stores them — the numeric section, then the string section, each in
/// ascending `(key, doc, post)` order — so blocks stream straight to
/// the output and nothing but the fences and the tag directories (what
/// a reader keeps resident anyway) stays in memory.
pub struct ValueRunBuilder {
    out: Box<dyn RawStore>,
    doc_base: u32,
    n_docs: u32,
    /// Finished blocks not yet written, then the block being filled.
    pending: Vec<u8>,
    /// File offset of `pending[0]`.
    off: u64,
    /// Where the block being filled starts in `pending`.
    open: Option<usize>,
    in_block: u16,
    section: VxSection,
    secs: [VxSecBuild; 2],
    /// The last entry pushed into the current section.
    last: VxLast,
}

impl ValueRunBuilder {
    /// A builder writing the run of documents
    /// `[doc_base, doc_base + n_docs)` to `out`.
    pub fn new(out: Box<dyn RawStore>, doc_base: u32, n_docs: u32) -> Self {
        ValueRunBuilder {
            out,
            doc_base,
            n_docs,
            pending: Vec::with_capacity(256 * 1024 + SEG_BLOCK),
            off: SEG_BLOCK as u64,
            open: None,
            in_block: 0,
            section: VxSection::Num,
            secs: Default::default(),
            last: VxLast::default(),
        }
    }

    /// Appends one posting. An entry out of order, a key of the wrong
    /// shape or a document outside the run's range is refused: the
    /// reader's searches rely on all three.
    pub fn push(&mut self, section: VxSection, key: &[u8], doc: u32, post: u32) -> Result<()> {
        if section != self.section {
            if section < self.section {
                return Err(corrupt("value-run sections out of order".into()));
            }
            self.close_block()?;
            self.section = section;
            self.last = VxLast::default();
        }
        if !section.key_len_ok(key.len()) {
            return Err(StorageError::TooLarge {
                size: key.len(),
                max: VX_MAX_KEY_LEN,
            });
        }
        if doc < self.doc_base || doc - self.doc_base >= self.n_docs {
            return Err(corrupt(format!(
                "value-run posting names document {doc} outside {}..{}",
                self.doc_base,
                u64::from(self.doc_base) + u64::from(self.n_docs)
            )));
        }
        if !self.last.advance(key, doc, post) {
            return Err(corrupt("value-run entries out of order".into()));
        }
        let need = key.len() + VX_ENTRY_OVERHEAD;
        if self
            .open
            .map_or(false, |start| self.pending.len() - start + need > SEG_BLOCK)
        {
            self.close_block()?;
        }
        let sec = &mut self.secs[section as usize];
        let klen = (key.len() as u16).to_le_bytes();
        if self.open.is_none() {
            self.open = Some(self.pending.len());
            self.pending.extend_from_slice(&[0, 0]);
            sec.blocks += 1;
            sec.fences.extend_from_slice(&klen);
            sec.fences.extend_from_slice(key);
        }
        self.pending.extend_from_slice(&klen);
        self.pending.extend_from_slice(key);
        self.pending.extend_from_slice(&doc.to_le_bytes());
        self.pending.extend_from_slice(&post.to_le_bytes());
        self.in_block += 1;
        sec.postings += 1;
        let tag = vx_tag(key);
        if sec.tags.last() != Some(&tag) {
            sec.tags.push(tag);
        }
        Ok(())
    }

    /// Stamps the entry count into the block being filled, pads it to
    /// [`SEG_BLOCK`] and writes `pending` out once it is large.
    fn close_block(&mut self) -> Result<()> {
        if let Some(start) = self.open.take() {
            self.pending[start..start + 2].copy_from_slice(&self.in_block.to_le_bytes());
            self.pending.resize(start + SEG_BLOCK, 0);
            self.in_block = 0;
        }
        if self.pending.len() >= 256 * 1024 {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.out.write_at(self.off, &self.pending)?;
        self.off += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Writes the last block, the fences, the tag directories, the
    /// header and the CRC table, then syncs.
    pub fn finish(mut self) -> Result<()> {
        self.close_block()?;
        self.flush()?;
        let geom = |s: &VxSecBuild| VxGeom {
            postings: s.postings,
            blocks: s.blocks,
            fence_len: s.fences.len() as u64,
            tags: s.tags.len() as u64,
        };
        let header = VxHeader::lay_out(
            self.doc_base,
            self.n_docs,
            [geom(&self.secs[0]), geom(&self.secs[1])],
        )
        .ok_or_else(|| corrupt("value run too large".into()))?;
        assert_eq!(
            header.fence_off, self.off,
            "value-run writer left its layout"
        );
        let mut w = SectionWriter::new(&*self.out, self.off);
        for s in &self.secs {
            w.push(&s.fences)?;
        }
        for s in &self.secs {
            for t in &s.tags {
                w.push(&t.to_le_bytes())?;
            }
        }
        let crc_off = w.finish()?;
        assert_eq!(header.crc_off, crc_off, "value-run writer left its layout");
        let mut block0 = vec![0u8; SEG_BLOCK];
        block0[..SEG_HEADER_LEN as usize].copy_from_slice(&header.encode());
        self.out.write_at(0, &block0)?;
        seal(&*self.out, crc_off, header.file_len)
    }
}

/// Summary returned by [`ValueRunReader::verify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VxCheck {
    /// Content blocks whose CRC was verified.
    pub blocks: u64,
    /// Numeric postings checked for order, shape and document range.
    pub num_postings: u64,
    /// String postings checked likewise.
    pub str_postings: u64,
}

/// What a [`ValueRunReader`] keeps of one section after `open`.
struct VxSec {
    section: VxSection,
    first_block: u64,
    postings: u64,
    /// The raw fence section: `klen | key` per block.
    fence_bytes: Vec<u8>,
    /// Start and length of each block's fence key in `fence_bytes`.
    fence_at: Vec<(u32, u16)>,
    /// Sorted distinct tag prefixes.
    tags: Vec<u32>,
}

impl VxSec {
    fn fence(&self, g: usize) -> &[u8] {
        self.fence_key(self.fence_at[g])
    }

    fn fence_key(&self, (at, len): (u32, u16)) -> &[u8] {
        &self.fence_bytes[at as usize..at as usize + usize::from(len)]
    }

    /// Parses and checks what `open` read for this section: one
    /// well-formed key per block filling the fence bytes exactly, in
    /// non-descending order (a key's postings can fill several blocks),
    /// and strictly ascending tags.
    fn parse(
        section: VxSection,
        first_block: u64,
        geom: &VxGeom,
        fence_bytes: &[u8],
        tag_bytes: &[u8],
    ) -> Result<VxSec> {
        let mut fence_at: Vec<(u32, u16)> = Vec::with_capacity(geom.blocks as usize);
        let mut at = 0usize;
        while at < fence_bytes.len() {
            let key = fence_bytes.get(at..at + 2).and_then(|l| {
                let len = u16::from_le_bytes([l[0], l[1]]);
                fence_bytes
                    .get(at + 2..at + 2 + usize::from(len))
                    .filter(|k| section.key_len_ok(k.len()))
            });
            let Some(key) = key else {
                return Err(corrupt("value-run fence runs past its section".into()));
            };
            fence_at.push(((at + 2) as u32, key.len() as u16));
            at += 2 + key.len();
        }
        let sec = VxSec {
            section,
            first_block,
            postings: geom.postings,
            fence_bytes: fence_bytes.to_vec(),
            fence_at,
            tags: tag_bytes
                .chunks_exact(4)
                .map(|t| u32::from_le_bytes(t.try_into().unwrap()))
                .collect(),
        };
        if sec.fence_at.len() as u64 != geom.blocks {
            return Err(corrupt(
                "value-run fence count disagrees with its blocks".into(),
            ));
        }
        if (1..sec.fence_at.len()).any(|g| sec.fence(g - 1) > sec.fence(g)) {
            return Err(corrupt("value-run fences are not sorted".into()));
        }
        if sec.tags.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("value-run tag directory is not sorted".into()));
        }
        Ok(sec)
    }
}

/// `true` when `key` lies before the range starting at `lo`.
fn below(lo: Bound<&[u8]>, key: &[u8]) -> bool {
    match lo {
        Bound::Unbounded => false,
        Bound::Included(l) => key < l,
        Bound::Excluded(l) => key <= l,
    }
}

/// `true` when `key` lies after the range ending at `hi`.
fn above(hi: Bound<&[u8]>, key: &[u8]) -> bool {
    match hi {
        Bound::Unbounded => false,
        Bound::Included(h) => key > h,
        Bound::Excluded(h) => key >= h,
    }
}

/// Read handle over one value run: direct [`RawStore`] reads through
/// the same block cache and counters as a [`SegmentReader`]. Fences and
/// tag directories are resident, so a probe is one in-memory binary
/// search plus the blocks that hold its answer — none at all for a tag
/// the run does not hold.
pub struct ValueRunReader {
    file: BlockFile,
    hdr: VxHeader,
    secs: [VxSec; 2],
}

impl ValueRunReader {
    /// Opens a run: validates the header against the file, then loads
    /// and checks both fence sections and both tag directories (their
    /// sizes were just checked against the file's). Block reads are
    /// recorded into `stats`.
    pub fn open(store: Box<dyn RawStore>, stats: Arc<IoStats>) -> Result<ValueRunReader> {
        let len = store.len()?;
        if len < SEG_HEADER_LEN {
            return Err(corrupt(format!("value-run file too short ({len} bytes)")));
        }
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        store.read_at(0, &mut h)?;
        let hdr = VxHeader::decode(&h)?;
        if hdr.file_len != len {
            return Err(corrupt(format!(
                "value-run length mismatch: header says {}, file has {len}",
                hdr.file_len
            )));
        }
        let mut resident = vec![0u8; (hdr.crc_off - hdr.fence_off) as usize];
        store.read_at(hdr.fence_off, &mut resident)?;
        let [num, strs] = &hdr.secs;
        let (num_fences, rest) = resident.split_at(num.fence_len as usize);
        let (str_fences, rest) = rest.split_at(strs.fence_len as usize);
        let (num_tags, str_tags) = rest.split_at(num.tags as usize * 4);
        let secs = [
            VxSec::parse(VxSection::Num, 1, num, num_fences, num_tags)?,
            VxSec::parse(VxSection::Str, 1 + num.blocks, strs, str_fences, str_tags)?,
        ];
        Ok(ValueRunReader {
            file: BlockFile::new(store, stats, len),
            hdr,
            secs,
        })
    }

    /// First global document id covered by this run.
    pub fn doc_base(&self) -> u32 {
        self.hdr.doc_base
    }

    /// Number of documents whose postings this run holds.
    pub fn n_docs(&self) -> u32 {
        self.hdr.n_docs
    }

    /// `(numeric, string)` postings stored.
    pub fn posting_counts(&self) -> (u64, u64) {
        (self.secs[0].postings, self.secs[1].postings)
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.hdr.file_len
    }

    /// Bytes of memory the resident fences and tag directories occupy.
    pub fn resident_bytes(&self) -> u64 {
        self.secs
            .iter()
            .map(|s| {
                s.fence_bytes.len()
                    + std::mem::size_of_val(&s.fence_at[..])
                    + std::mem::size_of_val(&s.tags[..])
            })
            .sum::<usize>() as u64
    }

    /// Range scan of one section in `(key, doc, post)` order, with the
    /// contract of `BPlusTree::scan`: `f(key, posting)` returns `false`
    /// to stop early. A range no resident tag can fall into touches no
    /// block; otherwise the scan starts in the one block the fences
    /// point at and enters a following block only while its fence is
    /// still inside the range.
    pub fn scan(
        &self,
        section: VxSection,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let sec = &self.secs[section as usize];
        let lo_tag = match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => vx_tag(k),
        };
        // The smallest key the first tag at or after the range's could
        // have: past `hi` means no stored key is inside the range.
        match sec.tags.get(sec.tags.partition_point(|&t| t < lo_tag)) {
            Some(t) if !above(hi, &t.to_be_bytes()) => {}
            _ => return Ok(()),
        }
        // Keys equal to `lo` can end the block before the first fence
        // that is not below it.
        let first = sec
            .fence_at
            .partition_point(|&at| below(lo, sec.fence_key(at)))
            .saturating_sub(1);
        for g in first..sec.fence_at.len() {
            if above(hi, sec.fence(g)) {
                break;
            }
            let block = self.file.block(sec.first_block + g as u64)?;
            for entry in VxEntries::new(&block)? {
                let (key, posting) = entry?;
                if below(lo, key) {
                    continue;
                }
                if above(hi, key) || !f(key, posting) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Full integrity check: every block against the CRC table, the
    /// header block's padding, and per section every block's first key
    /// against its resident fence, every key's shape, strict
    /// `(key, doc, post)` order across blocks, every document inside
    /// the run's range, the tags met against the resident directory,
    /// every pad byte zero and the posting count against the header.
    /// Reads bypass the cache (sequential, one pass).
    pub fn verify(&self) -> Result<VxCheck> {
        let store = &*self.file.store;
        let mut chunk = vec![0u8; 64 * SEG_BLOCK];
        let blocks = check_crc_table(store, self.hdr.crc_off, &mut chunk)?;
        store.read_at(0, &mut chunk[..SEG_BLOCK])?;
        if chunk[SEG_HEADER_LEN as usize..SEG_BLOCK]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(corrupt("value-run header padding is not zero".into()));
        }
        let mut counts = [0u64; 2];
        for (sec, count) in self.secs.iter().zip(&mut counts) {
            *count = self.verify_section(sec, &mut chunk)?;
        }
        Ok(VxCheck {
            blocks,
            num_postings: counts[0],
            str_postings: counts[1],
        })
    }

    fn verify_section(&self, sec: &VxSec, chunk: &mut [u8]) -> Result<u64> {
        let name = sec.section.name();
        let (lo, hi) = (
            u64::from(self.hdr.doc_base),
            u64::from(self.hdr.doc_base) + u64::from(self.hdr.n_docs),
        );
        let mut postings = 0u64;
        let mut last = VxLast::default();
        let mut tags: Vec<u32> = Vec::with_capacity(sec.tags.len());
        let per_read = chunk.len() / SEG_BLOCK;
        for g0 in (0..sec.fence_at.len()).step_by(per_read) {
            let n = per_read.min(sec.fence_at.len() - g0);
            let bytes = &mut chunk[..n * SEG_BLOCK];
            self.file
                .store
                .read_at((sec.first_block + g0 as u64) * SEG_BLOCK as u64, bytes)?;
            for (j, block) in bytes.chunks_exact(SEG_BLOCK).enumerate() {
                let g = g0 + j;
                let mut entries = VxEntries::new(block)?;
                let mut first = true;
                for entry in entries.by_ref() {
                    let (key, posting) = entry?;
                    let doc = u32::from_le_bytes(posting[..4].try_into().unwrap());
                    let post = u32::from_le_bytes(posting[4..].try_into().unwrap());
                    if first && key != sec.fence(g) {
                        return Err(corrupt(format!("{name} fence {g} disagrees")));
                    }
                    first = false;
                    if !sec.section.key_len_ok(key.len()) {
                        return Err(corrupt(format!(
                            "{name} entry {postings} has key length {}",
                            key.len()
                        )));
                    }
                    if !(lo..hi).contains(&u64::from(doc)) {
                        return Err(corrupt(format!(
                            "{name} entry {postings} names document {doc} outside {lo}..{hi}"
                        )));
                    }
                    if !last.advance(key, doc, post) {
                        return Err(corrupt(format!("{name} entry {postings} out of order")));
                    }
                    let tag = vx_tag(key);
                    if tags.last() != Some(&tag) {
                        tags.push(tag);
                    }
                    postings += 1;
                }
                if first {
                    return Err(corrupt(format!("{name} block {g} is empty")));
                }
                if entries.rest().iter().any(|&b| b != 0) {
                    return Err(corrupt(format!("{name} block {g} padding is not zero")));
                }
            }
        }
        if tags != sec.tags {
            return Err(corrupt(format!(
                "{name} tag directory disagrees with the keys stored"
            )));
        }
        if postings != sec.postings {
            return Err(corrupt(format!(
                "{name} section holds {postings} posting(s), header says {}",
                sec.postings
            )));
        }
        Ok(postings)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One segment referenced by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSegment {
    /// Flavor byte ([`SEG_KIND_RP`] / [`SEG_KIND_EP`]).
    pub kind: u8,
    /// File suffix relative to the database path (e.g. `.g1.rp.seg`).
    pub suffix: String,
    /// First global document id in the segment.
    pub doc_base: u32,
    /// Number of documents in the segment.
    pub n_docs: u32,
}

/// The atomic commit point of the segmented index: names the current
/// mutable generation and every live segment file. Two fixed slots;
/// a write goes to slot `generation % 2` and a torn write leaves the
/// other slot's older-but-valid manifest in charge, so publishing a
/// bulk build or compaction is a single `write + fsync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotone generation counter (slot selector).
    pub generation: u64,
    /// Suffix of the current mutable engine's files (`""` = the plain
    /// database path, `.g2` = sibling files of generation 2, ...).
    pub mutable_suffix: String,
    /// Live segments, ascending by `doc_base` within each kind.
    pub segments: Vec<ManifestSegment>,
}

/// Byte offset of manifest slot `i` (`i` in 0..2).
const MANIFEST_SLOT: [u64; 2] = [0, 16384];
const MANIFEST_MAGIC: u32 = 0x5052_4D4E; // "PRMN"

impl Manifest {
    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        p.extend_from_slice(&(self.mutable_suffix.len() as u32).to_le_bytes());
        p.extend_from_slice(self.mutable_suffix.as_bytes());
        p.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            p.push(s.kind);
            p.extend_from_slice(&(s.suffix.len() as u32).to_le_bytes());
            p.extend_from_slice(s.suffix.as_bytes());
            p.extend_from_slice(&s.doc_base.to_le_bytes());
            p.extend_from_slice(&s.n_docs.to_le_bytes());
        }
        p
    }

    /// Writes this manifest to its generation's slot and syncs.
    pub fn write_to(&self, store: &dyn RawStore) -> Result<()> {
        let payload = self.payload();
        let mut frame = Vec::with_capacity(payload.len() + 16);
        frame.extend_from_slice(&self.generation.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let slot = MANIFEST_SLOT[(self.generation % 2) as usize];
        assert!(
            frame.len() as u64 <= MANIFEST_SLOT[1],
            "manifest payload exceeds slot size"
        );
        store.write_at(slot, &frame)?;
        // Keep the file covering both slots so a slot-0 write after a
        // slot-1 write never truncates it away.
        if store.len()? < MANIFEST_SLOT[1] {
            store.set_len(MANIFEST_SLOT[1])?;
        }
        store.sync()?;
        Ok(())
    }

    fn read_slot(store: &dyn RawStore, slot: u64) -> Option<Manifest> {
        let len = store.len().ok()?;
        if len < slot + 16 {
            return None;
        }
        let mut head = [0u8; 16];
        store.read_at(slot, &mut head).ok()?;
        let generation = u64::from_le_bytes(head[0..8].try_into().unwrap());
        let plen = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(head[12..16].try_into().unwrap());
        if plen < 8 || plen as u64 > MANIFEST_SLOT[1] || slot + 16 + plen as u64 > len {
            return None;
        }
        let mut payload = vec![0u8; plen];
        store.read_at(slot + 16, &mut payload).ok()?;
        if crc32(&payload) != crc {
            return None;
        }
        let mut r = &payload[..];
        let u32_next = |r: &mut &[u8]| -> Option<u32> {
            if r.len() < 4 {
                return None;
            }
            let v = u32::from_le_bytes(r[..4].try_into().unwrap());
            *r = &r[4..];
            Some(v)
        };
        if u32_next(&mut r)? != MANIFEST_MAGIC {
            return None;
        }
        let slen = u32_next(&mut r)? as usize;
        if r.len() < slen {
            return None;
        }
        let mutable_suffix = String::from_utf8(r[..slen].to_vec()).ok()?;
        r = &r[slen..];
        let n = u32_next(&mut r)? as usize;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            if r.is_empty() {
                return None;
            }
            let kind = r[0];
            r = &r[1..];
            let slen = u32_next(&mut r)? as usize;
            if r.len() < slen {
                return None;
            }
            let suffix = String::from_utf8(r[..slen].to_vec()).ok()?;
            r = &r[slen..];
            let doc_base = u32_next(&mut r)?;
            let n_docs = u32_next(&mut r)?;
            segments.push(ManifestSegment {
                kind,
                suffix,
                doc_base,
                n_docs,
            });
        }
        Some(Manifest {
            generation,
            mutable_suffix,
            segments,
        })
    }

    /// Reads the newest valid manifest, or `None` when neither slot
    /// holds one (fresh database, or torn first write).
    pub fn read_from(store: &dyn RawStore) -> Result<Option<Manifest>> {
        let a = Self::read_slot(store, MANIFEST_SLOT[0]);
        let b = Self::read_slot(store, MANIFEST_SLOT[1]);
        Ok(match (a, b) {
            (Some(a), Some(b)) => Some(if a.generation >= b.generation { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Segment environments
// ---------------------------------------------------------------------------

/// Where a segmented database keeps its files: one store per suffix
/// (`""` = the database itself, `.seg` = the manifest, `.g1.rp.seg` =
/// a segment, ...) plus anonymous scratch stores for sort spills.
/// Production uses [`FileSegEnv`]; tests use [`MemSegEnv`] or a
/// fault-injecting wrapper.
pub trait SegmentEnv: Send + Sync {
    /// Creates (truncating) the store for `suffix`.
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>>;
    /// Opens the existing store for `suffix`.
    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>>;
    /// Whether a store for `suffix` exists.
    fn exists(&self, suffix: &str) -> Result<bool>;
    /// Removes the store for `suffix` (idempotent).
    fn remove(&self, suffix: &str) -> Result<()>;
    /// A fresh anonymous scratch store for sort spills.
    fn temp(&self) -> Result<Box<dyn RawStore>>;
}

/// [`SegmentEnv`] over real files: suffix `s` lives at `<base><s>`,
/// scratch stores are unlinked-on-open temp files next to the database.
pub struct FileSegEnv {
    base: std::path::PathBuf,
    tmp_seq: AtomicU64,
}

impl FileSegEnv {
    /// An environment rooted at database path `base`.
    pub fn new<P: Into<std::path::PathBuf>>(base: P) -> Self {
        FileSegEnv {
            base: base.into(),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The path for `suffix`.
    pub fn path(&self, suffix: &str) -> std::path::PathBuf {
        if suffix.is_empty() {
            self.base.clone()
        } else {
            let mut os = self.base.clone().into_os_string();
            os.push(suffix);
            std::path::PathBuf::from(os)
        }
    }
}

impl SegmentEnv for FileSegEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(FileStore::create(self.path(suffix))?))
    }

    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(FileStore::open(self.path(suffix))?))
    }

    fn exists(&self, suffix: &str) -> Result<bool> {
        Ok(self.path(suffix).exists())
    }

    fn remove(&self, suffix: &str) -> Result<()> {
        match std::fs::remove_file(self.path(suffix)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn temp(&self) -> Result<Box<dyn RawStore>> {
        let n = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.path(&format!(".tmp{}-{n}", std::process::id()));
        let store = FileStore::create(&path)?;
        // Unlink immediately: the open handle keeps the bytes alive and
        // the kernel reclaims them when the sorter drops the store.
        let _ = std::fs::remove_file(&path);
        Ok(Box::new(store))
    }
}

/// In-memory [`SegmentEnv`] for tests: suffixes map to shared
/// [`MemStore`]s, so "reopening" sees the same bytes.
#[derive(Default)]
pub struct MemSegEnv {
    files: Mutex<HashMap<String, MemStore>>,
}

impl MemSegEnv {
    /// An empty in-memory environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct handle to the named store (tests corrupt bytes this way).
    pub fn store(&self, suffix: &str) -> Option<MemStore> {
        self.files.lock().get(suffix).cloned()
    }
}

impl SegmentEnv for MemSegEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        let store = MemStore::new();
        self.files.lock().insert(suffix.to_string(), store.clone());
        Ok(Box::new(store))
    }

    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        self.files
            .lock()
            .get(suffix)
            .cloned()
            .map(|s| Box::new(s) as Box<dyn RawStore>)
            .ok_or_else(|| corrupt(format!("no such store: {suffix:?}")))
    }

    fn exists(&self, suffix: &str) -> Result<bool> {
        Ok(self.files.lock().contains_key(suffix))
    }

    fn remove(&self, suffix: &str) -> Result<()> {
        self.files.lock().remove(suffix);
        Ok(())
    }

    fn temp(&self) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(MemStore::new()))
    }
}

/// A temp factory over any shared [`SegmentEnv`].
pub fn env_temp_factory(env: &Arc<dyn SegmentEnv>) -> TempFactory {
    let env = Arc::clone(env);
    Box::new(move || env.temp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// (sym, level, children, fine_gap, doc_ends) of one oracle node.
    type RefNode = (u32, u32, BTreeMap<u32, usize>, u32, Vec<u32>);

    /// Reference trie with the exact-labeling semantics of
    /// `VirtualTrie::assign_ranges(Exact)`, used as the oracle.
    #[derive(Default)]
    struct RefTrie {
        nodes: Vec<RefNode>,
    }

    impl RefTrie {
        fn new() -> Self {
            RefTrie {
                nodes: vec![(u32::MAX, 0, BTreeMap::new(), u32::MAX, Vec::new())],
            }
        }

        fn insert(&mut self, path: &[u32], gaps: &[u32], doc: u32) {
            let mut cur = 0usize;
            for (i, &sym) in path.iter().enumerate() {
                let next = match self.nodes[cur].2.get(&sym) {
                    Some(&n) => n,
                    None => {
                        let id = self.nodes.len();
                        self.nodes.push((
                            sym,
                            (i + 1) as u32,
                            BTreeMap::new(),
                            u32::MAX,
                            Vec::new(),
                        ));
                        self.nodes[cur].2.insert(sym, id);
                        id
                    }
                };
                let f = &mut self.nodes[next].3;
                *f = if *f == u32::MAX {
                    gaps[i]
                } else {
                    (*f).max(gaps[i])
                };
                cur = next;
            }
            self.nodes[cur].4.push(doc);
        }

        fn label(&self) -> (Vec<TagEntry>, Vec<DocEnd>) {
            let mut tags = Vec::new();
            let mut ends = Vec::new();
            let mut counter = 0u64;
            // (node, child iterator index, left)
            let mut lefts = vec![0u64; self.nodes.len()];
            let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            let root_kids: Vec<usize> = self.nodes[0].2.values().copied().collect();
            stack.push((0, root_kids, 0));
            while let Some((id, kids, next)) = stack.last_mut() {
                let id = *id;
                if *next < kids.len() {
                    let c = kids[*next];
                    *next += 1;
                    counter += 1;
                    lefts[c] = counter;
                    let ckids: Vec<usize> = self.nodes[c].2.values().copied().collect();
                    stack.push((c, ckids, 0));
                } else {
                    stack.pop();
                    if id != 0 {
                        tags.push(TagEntry {
                            sym: self.nodes[id].0,
                            left: lefts[id],
                            right: counter.max(lefts[id]),
                            level: self.nodes[id].1,
                            fine_gap: self.nodes[id].3,
                        });
                    }
                }
            }
            for (id, n) in self.nodes.iter().enumerate() {
                for &d in &n.4 {
                    ends.push(DocEnd {
                        left: lefts[id],
                        doc: d,
                    });
                }
            }
            tags.sort();
            ends.sort();
            (tags, ends)
        }
    }

    /// Pseudo-random collection of (path, gaps) pairs with shared
    /// prefixes, duplicates, and one empty path.
    fn sample_paths(n: usize, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut s = seed;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i == 3 {
                out.push((Vec::new(), Vec::new()));
                continue;
            }
            let len = (lcg(&mut s) % 8) as usize + (i % 2);
            let path: Vec<u32> = (0..len).map(|_| (lcg(&mut s) % 6) as u32).collect();
            let gaps: Vec<u32> = (0..len).map(|_| (lcg(&mut s) % 50) as u32).collect();
            out.push((path, gaps));
        }
        out
    }

    /// Document `i`'s record: a few bytes, except one record of 2.5
    /// blocks.
    fn record_of(i: usize) -> Vec<u8> {
        if i == 2 {
            (0..10_000).map(|j| (j % 251) as u8).collect()
        } else {
            vec![i as u8; i % 7 + 1]
        }
    }

    fn build_segment(
        paths: &[(Vec<u32>, Vec<u32>)],
        run_mem: usize,
    ) -> (Arc<MemSegEnv>, SegTrieStats) {
        let env = Arc::new(MemSegEnv::new());
        let out = env.create(".t.seg").unwrap();
        let env_dyn: Arc<dyn SegmentEnv> = Arc::<MemSegEnv>::clone(&env);
        let mut b = SegmentBuilder::new(out, env_temp_factory(&env_dyn), SEG_KIND_RP, 0, run_mem);
        for (i, (path, gaps)) in paths.iter().enumerate() {
            b.add_doc(&record_of(i), path.clone(), gaps.clone())
                .unwrap();
        }
        let stats = b
            .finish(|st| format!("meta:{}", st.nodes).into_bytes())
            .unwrap();
        (env, stats)
    }

    fn oracle_rows(paths: &[(Vec<u32>, Vec<u32>)]) -> (Vec<TagEntry>, Vec<DocEnd>) {
        let mut oracle = RefTrie::new();
        for (doc, (p, g)) in paths.iter().enumerate() {
            oracle.insert(p, g, doc as u32);
        }
        oracle.label()
    }

    /// A collection whose segment has exactly `n_tag` tag rows and
    /// `n_doc` doc-end rows: 60 random paths over symbols 2..=7, one
    /// chain of symbol 9 long enough to reach `n_tag` (so one symbol's
    /// rows span several groups), and copies of the first path up to
    /// `n_doc` (so one `left` spans several doc groups).
    fn sized_paths(n_tag: u64, n_doc: u64, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut paths = sample_paths(60, seed);
        for (p, _) in &mut paths {
            p.iter_mut().for_each(|s| *s += 2);
        }
        let chain = n_tag as usize - oracle_rows(&paths).0.len();
        assert!(chain as u64 >= 3 * TAG_GROUP, "chain must span 3 groups");
        paths.push((vec![9; chain], (0..chain as u32).map(|g| g % 50).collect()));
        let filler = paths[0].clone();
        paths.resize(n_doc as usize, filler);
        paths
    }

    /// Both scans of `r` against the brute-force filter over the
    /// oracle rows, for every given symbol and every pair of bounds.
    fn check_scans(
        r: &SegmentReader,
        tags: &[TagEntry],
        ends: &[DocEnd],
        syms: &[u32],
        bounds: &[u64],
    ) {
        for &a in bounds {
            for &b in bounds {
                for &sym in syms {
                    let got = r.scan_tag_range(sym, a, b).unwrap();
                    let want: Vec<(u64, u64, u32, u32)> = tags
                        .iter()
                        .filter(|t| t.sym == sym && t.left > a && t.left <= b)
                        .map(|t| (t.left, t.right, t.level, t.fine_gap))
                        .collect();
                    assert_eq!(got, want, "sym {sym} range ({a}, {b}]");
                }
                let mut got = Vec::new();
                r.scan_docids(a, b, &mut |d| got.push(d)).unwrap();
                let want: Vec<u32> = ends
                    .iter()
                    .filter(|e| e.left >= a && e.left <= b)
                    .map(|e| e.doc)
                    .collect();
                assert_eq!(got, want, "docs [{a}, {b}]");
            }
        }
    }

    fn open_reader(env: &MemSegEnv) -> SegmentReader {
        let store = env.open(".t.seg").unwrap();
        SegmentReader::open(store, Arc::new(IoStats::default())).unwrap()
    }

    #[test]
    fn segment_matches_reference_trie_labeling() {
        let paths = sample_paths(200, 42);
        let (exp_tags, exp_ends) = oracle_rows(&paths);
        let (env, stats) = build_segment(&paths, 1 << 20);
        let r = open_reader(&env);
        assert_eq!(r.n_tag_entries(), exp_tags.len() as u64);
        assert_eq!(r.n_doc_entries(), exp_ends.len() as u64);
        assert_eq!(stats.sequences, paths.len() as u64);
        // Full-range scans per symbol reproduce the oracle rows.
        for sym in 0..6u32 {
            let got = r.scan_tag_range(sym, 0, u64::MAX).unwrap();
            let want: Vec<(u64, u64, u32, u32)> = exp_tags
                .iter()
                .filter(|t| t.sym == sym)
                .map(|t| (t.left, t.right, t.level, t.fine_gap))
                .collect();
            assert_eq!(got, want, "sym {sym}");
        }
        let mut got_ends = Vec::new();
        r.scan_docids(0, u64::MAX, &mut |d| got_ends.push(d))
            .unwrap();
        let want_ends: Vec<u32> = exp_ends.iter().map(|e| e.doc).collect();
        assert_eq!(got_ends, want_ends);
    }

    #[test]
    fn range_scans_match_filtered_oracle() {
        // Random ranges over a random segment.
        let paths = sample_paths(300, 7);
        let (exp_tags, exp_ends) = oracle_rows(&paths);
        let (env, _) = build_segment(&paths, 1 << 20);
        let r = open_reader(&env);
        let mut s = 99u64;
        for _ in 0..50 {
            let a = lcg(&mut s) % 400;
            let b = a + lcg(&mut s) % 400;
            check_scans(
                &r,
                &exp_tags,
                &exp_ends,
                &[(lcg(&mut s) % 6) as u32],
                &[a, b],
            );
        }
        // Row counts of exactly k groups and one either side: every
        // bound that is the key of a row next to a group boundary (and
        // its neighbours), the extremes, inverted ranges (each pair is
        // tried both ways round), and symbols below, between and above
        // the stored ones.
        let syms = [0, 1, 2, 5, 7, 8, 9, 10, u32::MAX];
        for d in [-1i64, 0, 1] {
            let (n_tag, n_doc) = (
                (6 * TAG_GROUP as i64 + d) as u64,
                (4 * DOC_GROUP as i64 + d) as u64,
            );
            let paths = sized_paths(n_tag, n_doc, 21);
            let (exp_tags, exp_ends) = oracle_rows(&paths);
            let (env, _) = build_segment(&paths, 1 << 20);
            let r = open_reader(&env);
            assert_eq!((r.n_tag_entries(), r.n_doc_entries()), (n_tag, n_doc));
            let chain: Vec<u64> = exp_tags
                .iter()
                .filter(|t| t.sym == 9)
                .map(|t| t.left)
                .collect();
            assert!(chain.len() as u64 >= 3 * TAG_GROUP);
            let mut bounds = vec![
                0,
                1,
                u64::MAX - 1,
                u64::MAX,
                chain[0],
                *chain.last().unwrap(),
            ];
            for k in 1..=6 {
                for i in [k * TAG_GROUP - 1, k * TAG_GROUP] {
                    let left = exp_tags.get(i as usize).map_or(0, |t| t.left);
                    bounds.extend([left.saturating_sub(1), left, left + 1]);
                }
            }
            for k in 1..=4 {
                for i in [k * DOC_GROUP - 1, k * DOC_GROUP] {
                    let left = exp_ends.get(i as usize).map_or(0, |e| e.left);
                    bounds.extend([left.saturating_sub(1), left, left + 1]);
                }
            }
            bounds.sort_unstable();
            bounds.dedup();
            check_scans(&r, &exp_tags, &exp_ends, &syms, &bounds);
            r.verify().unwrap();
        }
        // The empty segment answers every range with nothing.
        let (env, _) = build_segment(&[], 1 << 20);
        check_scans(&open_reader(&env), &[], &[], &syms, &[0, 1, u64::MAX]);
    }

    #[test]
    fn external_sorter_spills_and_merges_in_order() {
        let mut s = 17u64;
        let mut sorter: ExternalSorter<TagEntry> = ExternalSorter::new(
            1,
            Box::new(|| Ok(Box::new(MemStore::new()) as Box<dyn RawStore>)),
        );
        let n = 5000u64;
        for _ in 0..n {
            sorter
                .push(TagEntry {
                    sym: (lcg(&mut s) % 16) as u32,
                    left: lcg(&mut s),
                    right: 0,
                    level: 1,
                    fine_gap: 0,
                })
                .unwrap();
        }
        assert!(sorter.spilled_runs() >= 2, "tiny budget must spill runs");
        assert_eq!(sorter.len(), n);
        let mut prev: Option<(u32, u64)> = None;
        let mut count = 0u64;
        sorter
            .drain(|t| {
                assert!(prev.map_or(true, |p| p <= t.key()), "merge out of order");
                prev = Some(t.key());
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(count, n);
    }

    #[test]
    fn tiny_run_budget_spills_and_produces_identical_files() {
        let paths = sample_paths(2000, 11);
        let (env_big, _) = build_segment(&paths, 16 << 20);
        let (env_small, _) = build_segment(&paths, 1); // clamped to 64 KiB: forces spills
        assert_eq!(
            env_big.store(".t.seg").unwrap().snapshot(),
            env_small.store(".t.seg").unwrap().snapshot(),
            "spilled and in-memory builds must be byte-identical"
        );
    }

    #[test]
    fn records_and_meta_roundtrip() {
        // Enough documents for the record index to cross block
        // boundaries, behind a record longer than a block.
        let paths = sample_paths(1100, 3);
        let (env, stats) = build_segment(&paths, 1 << 20);
        let r = open_reader(&env);
        assert_eq!(r.n_docs(), 1100);
        let straddles = |doc: u64| {
            let off = r.hdr.rec_idx_off + doc * 8;
            off / SEG_BLOCK as u64 != (off + 15) / SEG_BLOCK as u64
        };
        assert!((0..1100).any(straddles), "no offset pair straddles a block");
        assert!(record_of(2).len() > 2 * SEG_BLOCK);
        for i in 0..1100usize {
            assert_eq!(r.record(i as u32).unwrap(), record_of(i), "record {i}");
        }
        assert!(r.record(1100).is_err());
        assert_eq!(
            r.meta().unwrap(),
            format!("meta:{}", stats.nodes).into_bytes()
        );
    }

    #[test]
    fn verify_passes_clean_and_catches_corruption() {
        let paths = sample_paths(120, 5);
        let (env, _) = build_segment(&paths, 1 << 20);
        let r = open_reader(&env);
        let check = r.verify().unwrap();
        assert!(check.blocks > 0 && check.tag_entries > 0);
        // Flip one byte in the middle of the tag section.
        let store = env.store(".t.seg").unwrap();
        let mut bytes = store.snapshot();
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x40;
        store.set_len(0).unwrap();
        store.write_at(0, &bytes).unwrap();
        let r = open_reader(&env);
        assert!(r.verify().is_err(), "bit flip must fail verification");
    }

    fn try_open(bytes: &[u8]) -> Result<SegmentReader> {
        let store = MemStore::new();
        store.write_at(0, bytes).unwrap();
        SegmentReader::open(Box::new(store), Arc::new(IoStats::default()))
    }

    /// `good` with the little-endian header field at `at..at + width`
    /// replaced by `f(old)` and the header CRC recomputed.
    fn patch_header(good: &[u8], at: usize, width: usize, f: impl Fn(u64) -> u64) -> Vec<u8> {
        let mut bytes = good.to_vec();
        let mut v = [0u8; 8];
        v[..width].copy_from_slice(&bytes[at..at + width]);
        let new = f(u64::from_le_bytes(v)).to_le_bytes();
        bytes[at..at + width].copy_from_slice(&new[..width]);
        let crc = crc32(&bytes[..120]);
        bytes[120..124].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn open_rejects_bad_magic_truncation_and_version_1() {
        let paths = sample_paths(20, 9);
        let (env, _) = build_segment(&paths, 1 << 20);
        let good = env.store(".t.seg").unwrap().snapshot();
        try_open(&good).unwrap();
        let mut bad = good.clone();
        bad[..8].copy_from_slice(b"NOTASEG!");
        assert!(try_open(&bad).is_err());
        assert!(
            try_open(&good[..good.len() - 10]).is_err(),
            "length mismatch must be rejected"
        );
        let err = match try_open(&patch_header(&good, 8, 4, |_| 1)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version-1 segment must be refused"),
        };
        assert!(
            err.contains("version 1") && err.contains("re-index"),
            "unhelpful refusal: {err}"
        );
    }

    #[test]
    fn open_rejects_inconsistent_header_geometry() {
        let paths = sample_paths(400, 9);
        let (env, _) = build_segment(&paths, 1 << 20);
        let good = env.store(".t.seg").unwrap().snapshot();
        // (offset, width) of n_docs, n_tag, n_doc, then the ten section
        // offsets and lengths: none of them can change alone, by one, by
        // a whole block (alignment kept), by whole groups, or to
        // something huge.
        let fields = [(20, 4), (24, 8), (32, 8)]
            .into_iter()
            .chain((40..120).step_by(8).map(|at| (at, 8)));
        for (at, width) in fields {
            let perturb: [fn(u64) -> u64; 5] = [
                |v| v + 1,
                |v| v.wrapping_sub(1),
                |v| v + SEG_BLOCK as u64,
                |v| v + TAG_GROUP * DOC_GROUP,
                |_| u64::MAX / 2,
            ];
            for f in perturb {
                match try_open(&patch_header(&good, at, width, f)) {
                    Err(StorageError::Corrupt { .. }) => {}
                    Err(e) => panic!("field at {at}: wrong error {e}"),
                    // A count, or the end of the record data, can move
                    // by one inside the padding before the next aligned
                    // section without moving it: the rows then disagree
                    // with the header, and verify says so.
                    Ok(r) => assert!(
                        at <= 40 && matches!(r.verify(), Err(StorageError::Corrupt { .. })),
                        "field at {at}: inconsistent header accepted"
                    ),
                }
            }
        }
    }

    #[test]
    fn block_cache_counts_logical_reads_and_fetches() {
        let paths = sample_paths(400, 13);
        let (env, _) = build_segment(&paths, 1 << 20);
        let stats = Arc::new(IoStats::default());
        let r = SegmentReader::open(env.open(".t.seg").unwrap(), Arc::clone(&stats)).unwrap();
        // The cost model: a lookup whose hits lie inside one group is
        // one block read, fetched the first time and cached after, and
        // nothing before it (open included) touched the cache.
        let (exp_tags, _) = oracle_rows(&paths);
        let g = TAG_GROUP as usize;
        let i = (g + 1..2 * g - 4)
            .find(|&i| exp_tags[i - 1].sym == exp_tags[i + 3].sym)
            .expect("four rows of one symbol inside group 1");
        let (sym, ql, qr) = (exp_tags[i].sym, exp_tags[i - 1].left, exp_tags[i + 3].left);
        for fetches in [1, 0] {
            let before = stats.snapshot();
            assert_eq!(r.scan_tag_range(sym, ql, qr).unwrap().len(), 4);
            let after = stats.snapshot();
            assert_eq!(after.seg_block_reads - before.seg_block_reads, 1);
            assert_eq!(after.seg_block_fetches - before.seg_block_fetches, fetches);
        }
        let before = stats.snapshot();
        for sym in 0..6u32 {
            r.scan_tag_range(sym, 0, u64::MAX).unwrap();
        }
        let warm = stats.snapshot();
        assert!(warm.seg_block_reads > before.seg_block_reads);
        assert!(warm.seg_block_fetches > before.seg_block_fetches);
        for sym in 0..6u32 {
            r.scan_tag_range(sym, 0, u64::MAX).unwrap();
        }
        let hot = stats.snapshot();
        assert!(hot.seg_block_reads > warm.seg_block_reads);
        assert_eq!(
            hot.seg_block_fetches, warm.seg_block_fetches,
            "second pass over a small segment must be all cache hits"
        );
    }

    #[test]
    fn manifest_roundtrips_and_survives_torn_writes() {
        let store = MemStore::new();
        assert!(Manifest::read_from(&store).unwrap().is_none());
        let m1 = Manifest {
            generation: 1,
            mutable_suffix: "".into(),
            segments: vec![ManifestSegment {
                kind: SEG_KIND_RP,
                suffix: ".g1.rp.seg".into(),
                doc_base: 0,
                n_docs: 10,
            }],
        };
        m1.write_to(&store).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m1);
        let mut m2 = m1.clone();
        m2.generation = 2;
        m2.mutable_suffix = ".g2".into();
        m2.write_to(&store).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m2);
        // Tear generation 2's slot (slot 0): generation 1 takes over.
        store.write_at(20, &[0xFF; 8]).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m1);
    }

    #[test]
    fn empty_segment_is_valid() {
        let env = Arc::new(MemSegEnv::new());
        let env_dyn: Arc<dyn SegmentEnv> = Arc::<MemSegEnv>::clone(&env);
        let b = SegmentBuilder::new(
            env.create(".t.seg").unwrap(),
            env_temp_factory(&env_dyn),
            SEG_KIND_EP,
            7,
            1 << 20,
        );
        b.finish(|_| b"m".to_vec()).unwrap();
        let r = open_reader(&env);
        assert_eq!(r.kind(), SEG_KIND_EP);
        assert_eq!(r.doc_base(), 7);
        assert_eq!(r.n_docs(), 0);
        assert_eq!(r.scan_tag_range(0, 0, u64::MAX).unwrap(), vec![]);
        r.verify().unwrap();
    }

    // -----------------------------------------------------------------
    // Value runs
    // -----------------------------------------------------------------

    fn num_key(tag: u32, v: u64) -> Vec<u8> {
        let mut k = tag.to_be_bytes().to_vec();
        k.extend_from_slice(&v.to_be_bytes());
        k
    }

    fn str_key(tag: u32, s: &str) -> Vec<u8> {
        let mut k = tag.to_be_bytes().to_vec();
        k.extend_from_slice(s.as_bytes());
        k
    }

    /// A sorted run's worth of entries over documents `100..100 + n_docs`
    /// and tags 3, 5 and 9: per document a few numeric and string
    /// values from a small vocabulary (so keys repeat across documents),
    /// one long string, and — under tag 5 — one string every document
    /// shares, whose postings fill several blocks on their own.
    fn sample_entries(n_docs: u32, seed: u64) -> Vec<VxEntry> {
        let mut s = seed;
        let mut out = Vec::new();
        for doc in 100..100 + n_docs {
            for post in 1..=3u32 {
                let tag = [3, 5, 9][(lcg(&mut s) % 3) as usize];
                let v = lcg(&mut s) % 40;
                out.push(VxEntry {
                    section: VxSection::Num,
                    key: num_key(tag, v),
                    doc,
                    post,
                });
                out.push(VxEntry {
                    section: VxSection::Str,
                    key: str_key(tag, &format!("v{v}")),
                    doc,
                    post,
                });
            }
            out.push(VxEntry {
                section: VxSection::Str,
                key: str_key(9, &"long".repeat(1 + (lcg(&mut s) % 60) as usize)),
                doc,
                post: 4,
            });
            out.push(VxEntry {
                section: VxSection::Str,
                key: str_key(5, "shared"),
                doc,
                post: 5,
            });
        }
        out.sort();
        out
    }

    fn build_run(entries: &[VxEntry], doc_base: u32, n_docs: u32) -> MemStore {
        let store = MemStore::new();
        let mut b = ValueRunBuilder::new(Box::new(store.clone()), doc_base, n_docs);
        for e in entries {
            b.push(e.section, &e.key, e.doc, e.post).unwrap();
        }
        b.finish().unwrap();
        store
    }

    fn open_run(store: &MemStore, stats: &Arc<IoStats>) -> Result<ValueRunReader> {
        ValueRunReader::open(Box::new(store.clone()), Arc::clone(stats))
    }

    /// What a scan of `[lo, hi]` visits, as entries.
    fn scan_run(
        r: &ValueRunReader,
        section: VxSection,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<VxEntry>> {
        let mut got = Vec::new();
        r.scan(section, lo, hi, |k, v| {
            got.push(VxEntry {
                section,
                key: k.to_vec(),
                doc: u32::from_le_bytes(v[..4].try_into().unwrap()),
                post: u32::from_le_bytes(v[4..].try_into().unwrap()),
            });
            true
        })?;
        Ok(got)
    }

    #[test]
    fn value_run_scans_match_filtered_oracle() {
        let entries = sample_entries(400, 31);
        let store = build_run(&entries, 100, 400);
        let r = open_run(&store, &Arc::new(IoStats::default())).unwrap();
        let check = r.verify().unwrap();
        let count = |s| entries.iter().filter(|e| e.section == s).count() as u64;
        assert_eq!(
            (check.num_postings, check.str_postings),
            (count(VxSection::Num), count(VxSection::Str))
        );
        assert_eq!(r.posting_counts(), (check.num_postings, check.str_postings));
        assert!(
            r.secs.iter().all(|s| s.fence_at.len() > 4),
            "several blocks"
        );
        assert!(
            (1..r.secs[1].fence_at.len()).any(|g| r.secs[1].fence(g - 1) == r.secs[1].fence(g)),
            "one key's postings span whole blocks"
        );
        for section in [VxSection::Num, VxSection::Str] {
            let of: Vec<&VxEntry> = entries.iter().filter(|e| e.section == section).collect();
            // Bounds: every fence and its neighbours in key order, keys
            // of absent tags, the shortest and longest possible keys.
            let sec = &r.secs[section as usize];
            let mut keys: Vec<Vec<u8>> =
                vec![vec![], vec![0, 0, 0, 4], vec![0, 0, 0, 6], vec![0xFF; 12]];
            for g in 0..sec.fence_at.len() {
                let at = of.partition_point(|e| e.key.as_slice() < sec.fence(g));
                for i in at.saturating_sub(1)..(at + 2).min(of.len()) {
                    keys.push(of[i].key.clone());
                }
            }
            keys.sort();
            keys.dedup();
            let mut all: Vec<Bound<&[u8]>> = vec![Bound::Unbounded];
            for k in &keys {
                all.extend([Bound::Included(&k[..]), Bound::Excluded(&k[..])]);
            }
            for &lo in &all {
                for &hi in &all {
                    let from = of.partition_point(|e| below(lo, &e.key));
                    let to = of.partition_point(|e| !above(hi, &e.key)).max(from);
                    let want = &of[from..to];
                    let got = scan_run(&r, section, lo, hi).unwrap();
                    assert!(
                        got.iter().eq(want.iter().copied()),
                        "{section:?} {lo:?}..{hi:?}"
                    );
                }
            }
            // Stopping early ends the scan after the entry refused.
            let mut seen = 0;
            r.scan(section, Bound::Unbounded, Bound::Unbounded, |_, _| {
                seen += 1;
                seen < 3
            })
            .unwrap();
            assert_eq!(seen, 3);
        }
        // The empty run answers every range with nothing, from 4 KiB.
        let empty = build_run(&[], 7, 0);
        let r = open_run(&empty, &Arc::new(IoStats::default())).unwrap();
        assert_eq!(r.file_len(), SEG_BLOCK as u64 + 4);
        assert_eq!(
            scan_run(&r, VxSection::Str, Bound::Unbounded, Bound::Unbounded).unwrap(),
            vec![]
        );
        assert_eq!(r.verify().unwrap().blocks, 1);
    }

    #[test]
    fn value_run_probes_cost_the_blocks_that_hold_the_answer() {
        let entries = sample_entries(700, 37);
        let store = build_run(&entries, 100, 700);
        let stats = Arc::new(IoStats::default());
        let r = open_run(&store, &stats).unwrap();
        assert_eq!(stats.snapshot().seg_block_reads, 0, "open touches no block");
        let cost = |section, lo: Bound<&[u8]>, hi: Bound<&[u8]>| {
            let before = stats.snapshot();
            let n = scan_run(&r, section, lo, hi).unwrap().len();
            let after = stats.snapshot();
            (
                n,
                after.seg_block_reads - before.seg_block_reads,
                after.seg_block_fetches - before.seg_block_fetches,
            )
        };
        // A point probe inside one block: one read, fetched the first
        // time and cached after.
        let sec = &r.secs[0];
        let of: Vec<&VxEntry> = entries
            .iter()
            .filter(|e| e.section == VxSection::Num)
            .collect();
        let key = of
            .iter()
            .map(|e| &e.key)
            .find(|k| {
                let g = sec
                    .fence_at
                    .partition_point(|&at| sec.fence_key(at) < k.as_slice());
                // Not a fence, and the block after starts past it.
                g < sec.fence_at.len() && sec.fence(g) > k.as_slice()
            })
            .expect("a key strictly inside a block");
        let hits = of.iter().filter(|e| &e.key == key).count();
        let point = (Bound::Included(&key[..]), Bound::Included(&key[..]));
        assert_eq!(cost(VxSection::Num, point.0, point.1), (hits, 1, 1));
        assert_eq!(cost(VxSection::Num, point.0, point.1), (hits, 1, 0));
        // A tag the section does not hold — below, between and above
        // the stored ones, as a point, a range and a prefix scan —
        // touches nothing.
        for tag in [0u32, 4, 6, 8, 10, u32::MAX] {
            let (lo, hi) = (num_key(tag, 0), num_key(tag, u64::MAX));
            assert_eq!(
                cost(
                    VxSection::Num,
                    Bound::Included(&lo[..]),
                    Bound::Included(&hi[..])
                ),
                (0, 0, 0),
                "tag {tag}"
            );
            let next = tag.checked_add(1).map(u32::to_be_bytes);
            let hi = next
                .as_ref()
                .map_or(Bound::Unbounded, |t| Bound::Excluded(&t[..]));
            let prefix = str_key(tag, "v");
            assert_eq!(
                cost(VxSection::Str, Bound::Included(&prefix[..]), hi),
                (0, 0, 0)
            );
        }
        // A range crossing block boundaries touches the block it starts
        // in and exactly the blocks whose fences are inside it.
        let sec = &r.secs[1];
        let (lo, hi) = (sec.fence(2).to_vec(), sec.fence(5).to_vec());
        let lo = {
            // Just past fence 2's key: the scan starts inside block 2 or
            // a later block with the same fence.
            let mut k = lo;
            k.push(0);
            k
        };
        let start = sec
            .fence_at
            .partition_point(|&at| sec.fence_key(at) < lo.as_slice())
            - 1;
        let inside = (0..sec.fence_at.len())
            .filter(|&g| g > start && sec.fence(g) <= hi.as_slice())
            .count() as u64;
        assert!(inside >= 2, "the range spans several fences");
        let (_, reads, fetches) = cost(
            VxSection::Str,
            Bound::Included(&lo[..]),
            Bound::Included(&hi[..]),
        );
        assert_eq!((reads, fetches), (1 + inside, 1 + inside));
    }

    #[test]
    fn value_run_builder_refuses_what_a_reader_could_not_search() {
        let push_all = |entries: &[(VxSection, Vec<u8>, u32, u32)]| {
            let mut b = ValueRunBuilder::new(Box::new(MemStore::new()), 10, 5);
            entries
                .iter()
                .try_for_each(|(s, k, d, p)| b.push(*s, k, *d, *p))
        };
        let n = |v| (VxSection::Num, num_key(1, v), 10, 1);
        let s = |v: &str, doc, post| (VxSection::Str, str_key(1, v), doc, post);
        push_all(&[
            n(1),
            n(2),
            s("a", 10, 1),
            s("a", 10, 2),
            s("a", 11, 1),
            s("b", 10, 1),
        ])
        .unwrap();
        for (bad, why) in [
            (vec![n(2), n(1)], "keys descend"),
            (vec![n(1), n(1)], "an entry repeats"),
            (
                vec![s("a", 11, 1), s("a", 10, 2)],
                "postings of a key descend",
            ),
            (vec![s("a", 10, 1), n(1)], "sections descend"),
            (vec![s("a", 9, 1)], "a document below the run"),
            (vec![s("a", 15, 1)], "a document past the run"),
            (
                vec![(VxSection::Num, str_key(1, "short"), 10, 1)],
                "a numeric key of the wrong length",
            ),
            (
                vec![(VxSection::Str, vec![0, 0, 1], 10, 1)],
                "a key shorter than its tag",
            ),
            (
                vec![s(&"x".repeat(257), 10, 1)],
                "a key longer than a run stores",
            ),
        ] {
            assert!(push_all(&bad).is_err(), "{why}");
        }
    }

    /// `good` with header word `at..at + width` replaced by `f(old)`
    /// and the header CRC recomputed.
    fn open_patched_run(
        good: &[u8],
        at: usize,
        width: usize,
        f: impl Fn(u64) -> u64,
    ) -> Result<ValueRunReader> {
        let store = MemStore::new();
        store
            .write_at(0, &patch_header(good, at, width, f))
            .unwrap();
        open_run(&store, &Arc::new(IoStats::default()))
    }

    #[test]
    fn value_run_open_rejects_inconsistent_geometry_and_unsorted_residents() {
        let entries = sample_entries(300, 41);
        let good = build_run(&entries, 100, 300).snapshot();
        open_patched_run(&good, 24, 8, |v| v).unwrap();
        // The eight counts and the three derived offsets: none can
        // change alone — by one, by a block, or to something huge.
        for at in (24..112).step_by(8) {
            let perturb: [fn(u64) -> u64; 5] = [
                |v| v + 1,
                |v| v.wrapping_sub(1),
                |v| v + SEG_BLOCK as u64,
                |_| 0,
                |_| u64::MAX / 2,
            ];
            for f in perturb {
                match open_patched_run(&good, at, 8, f) {
                    Err(StorageError::Corrupt { .. }) => {}
                    Err(e) => panic!("word at {at}: wrong error {e}"),
                    // A posting count can move by one without moving a
                    // section; verify counts the postings.
                    Ok(r) => assert!(
                        (at == 24 || at == 56)
                            && matches!(r.verify(), Err(StorageError::Corrupt { .. })),
                        "word at {at}: inconsistent header accepted"
                    ),
                }
            }
        }
        // Magic, version, kind, truncation.
        for (at, byte) in [(0, b'X'), (8, 2), (12, SEG_KIND_RP)] {
            let mut bad = good.clone();
            bad[at] = byte;
            let crc = crc32(&bad[..120]);
            bad[120..124].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                ValueRunReader::open(
                    Box::new(MemStore::from_bytes(bad)),
                    Arc::new(IoStats::default())
                ),
                Err(StorageError::Corrupt { .. })
            ));
        }
        for cut in [0, 100, good.len() - 1] {
            assert!(ValueRunReader::open(
                Box::new(MemStore::from_bytes(good[..cut].to_vec())),
                Arc::new(IoStats::default())
            )
            .is_err());
        }
        // The resident sections are checked as they are loaded: a fence
        // length leading past its section, fences out of order, a tag
        // directory out of order.
        let hdr = VxHeader::decode(&good[..SEG_HEADER_LEN as usize]).unwrap();
        let fences = hdr.fence_off as usize;
        let tags = fences + (hdr.secs[0].fence_len + hdr.secs[1].fence_len) as usize;
        let damage: [(&str, fn(&mut [u8], usize, usize)); 4] = [
            ("fence length past its section", |b, fences, _| {
                b[fences + 1] = 0x7F
            }),
            ("fence shorter than a tag", |b, fences, _| b[fences] = 3),
            ("fences out of order", |b, fences, _| {
                b[fences + 2..fences + 6].fill(0xFF)
            }),
            ("tags out of order", |b, _, tags| {
                b[tags..tags + 4].fill(0xFF)
            }),
        ];
        for (why, f) in damage {
            let mut bad = good.clone();
            f(&mut bad, fences, tags);
            match ValueRunReader::open(
                Box::new(MemStore::from_bytes(bad)),
                Arc::new(IoStats::default()),
            ) {
                Err(StorageError::Corrupt { .. }) => {}
                Err(e) => panic!("{why}: wrong error {e}"),
                Ok(_) => panic!("{why}: accepted"),
            }
        }
    }

    /// One way to damage a file.
    #[derive(Debug, Clone)]
    enum Damage {
        Flip { at: u64, mask: u8 },
        Truncate { len: u64 },
        Splice { from: u64, to: u64, len: u64 },
    }

    #[test]
    fn hostile_value_run_is_an_error_never_a_panic() {
        use prix_testkit::{check, from_fn, Config};
        let entries = sample_entries(200, 43);
        let good = build_run(&entries, 100, 200).snapshot();
        let len = good.len() as u64;
        let resident = VxHeader::decode(&good[..SEG_HEADER_LEN as usize])
            .unwrap()
            .fence_off;
        let damage = from_fn(move |rng| {
            // Half the damage lands on the header and the resident
            // sections, which `open` parses; the rest anywhere.
            let at = |rng: &mut prix_testkit::TestRng| {
                if rng.chance(0.25) {
                    rng.below(SEG_HEADER_LEN)
                } else if rng.chance(0.33) {
                    rng.range(resident, len - 1)
                } else {
                    rng.below(len)
                }
            };
            match rng.below(4) {
                0 => Damage::Truncate {
                    len: rng.below(len),
                },
                1 => Damage::Splice {
                    from: at(rng),
                    to: at(rng),
                    len: 1 + rng.below(600),
                },
                _ => Damage::Flip {
                    at: at(rng),
                    mask: 1 << rng.below(8),
                },
            }
        });
        let cfg = Config {
            cases: 600,
            max_shrink_iters: 100,
            ..Default::default()
        };
        check("hostile_value_run", &cfg, &damage, |d| {
            let mut bytes = good.clone();
            match *d {
                Damage::Flip { at, mask } => bytes[at as usize] ^= mask,
                Damage::Truncate { len } => bytes.truncate(len as usize),
                Damage::Splice { from, to, len } => {
                    let n = (len.min(bytes.len() as u64 - from.max(to))) as usize;
                    bytes.copy_within(from as usize..from as usize + n, to as usize);
                }
            }
            // Whatever the damage: an error somewhere, or the answer.
            let Ok(r) = ValueRunReader::open(
                Box::new(MemStore::from_bytes(bytes)),
                Arc::new(IoStats::default()),
            ) else {
                return Ok(());
            };
            if r.verify().is_err() {
                // Scans of a run that fails verification may answer
                // anything, but must not panic.
                for section in [VxSection::Num, VxSection::Str] {
                    let _ = scan_run(&r, section, Bound::Unbounded, Bound::Unbounded);
                }
                return Ok(());
            }
            let mut got = Vec::new();
            for section in [VxSection::Num, VxSection::Str] {
                match scan_run(&r, section, Bound::Unbounded, Bound::Unbounded) {
                    Ok(part) => got.extend(part),
                    Err(_) => return Ok(()),
                }
            }
            if got == entries {
                Ok(())
            } else {
                Err(format!("{d:?} went unnoticed and changed the postings"))
            }
        });
    }
}
