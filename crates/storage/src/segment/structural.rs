//! Structural segments: one index flavor (RP or EP) for a contiguous
//! range of document ids (`doc_base .. doc_base + n_docs`), bulk-loaded
//! into an implicit B⁺-tree file. Format version 3, on the frame, CRC
//! table and sections of [`super::blockfile`]:
//!
//! ```text
//! +--------+----------+---------+-----+------------+------------+-----+------------+------------+------+-----------+
//! | header | rec data | rec idx | pad | tag blocks | tag fences | pad | doc blocks | doc fences | meta | CRC table |
//! +--------+----------+---------+-----+------------+------------+-----+------------+------------+------+-----------+
//!                                     ^ block-aligned                 ^ block-aligned
//!
//!   one tag or doc block (4 KiB, rows never span blocks):
//! +--------+------------+---------------------------+-----+----------------------------------------+-------+
//! | n_rows | n_restarts | restart offsets × n, end  | row | Δrow … (≤ 15) | row | Δrow … | row | … | zeros |
//! +--------+------------+---------------------------+-----+----------------------------------------+-------+
//!   u16      u16          u16 each                    ^ every restart offset points at a fully coded row
//! ```
//!
//! * **header** — the 128-byte frame, magic `PRIXSEG\0`; its twelve
//!   words are the two row counts, then the section offsets, the meta
//!   length and the file length. Every offset follows from the document
//!   count, the end of the record data and the number of blocks each
//!   row section packed into — which the header stores as the distance
//!   from a section's offset to its fences' (`Header::lay_out`); a
//!   header that disagrees with that arithmetic, or whose row counts
//!   its blocks could not hold, is refused at open.
//! * **rec data / rec idx** — per-document refinement records (opaque
//!   blobs; the core layer writes varints) and their `n_docs + 1`
//!   offsets.
//! * **tag blocks** — the Trie-Symbol index: `(sym, left, right, level,
//!   fine_gap)` rows sorted by `(sym, left)`, as LEB128 varints. A row
//!   is coded against the one before it — `left − previous left`,
//!   `right − left`, `level`, `fine_gap`: four bytes for nearly every
//!   row, where format 2 spent 28 — except at a *restart*, where `sym`
//!   and `left` are written in full: the first row of a block, every
//!   change of symbol, and every 16th row of a run. A block holds the
//!   rows that fit (about 780 on the benchmark's collection, where
//!   format 2 held 146) and says how many.
//! * **doc blocks** — the Docid index: `(left, doc)` rows sorted by
//!   `(left, doc)`, packed the same way (`left − previous left`, `doc`).
//! * **tag / doc fences** — the first key of every block (12 and 8
//!   bytes each), read once at open: 16 bytes of memory per block.
//! * **meta** — an opaque blob (the core layer stores MaxGap table,
//!   childless set, build stats, as varints).
//! * **CRC table** — one CRC-32 per block of everything before it.
//!
//! A lookup is one binary search over the resident fences, one over the
//! restarts of one block and a decode of at most 16 rows.
//!
//! Versions 1 (unpadded groups, fences searched on disk) and 2
//! (fixed-width rows, 146 to a block, raw `u32` records) are refused at
//! open: re-index.
//!
//! The builder sorts label paths once with bounded memory
//! ([`super::sort`]), streams them through a virtual trie that assigns
//! the exact labels a bulk `VirtualTrie::assign_ranges(Exact)` would,
//! sorts the finished tag rows a second time and lays the sections out.

use std::sync::Arc;

use super::blockfile::{
    check_crc_table, corrupt, put_varint, seal, take_varint, take_varint32, BlockFile, Format,
    Frame, PackedRow, PackedRows, RowPacker, Section, SeqWriter, SEG_BLOCK, SEG_HEADER_LEN,
};
use super::sort::{ExternalSorter, RunBuf, SortItem, TempFactory};
use crate::error::Result;
use crate::stats::IoStats;
use crate::store::RawStore;
use crate::sync::Mutex;

/// Segment format version (3: packed varint rows in self-contained
/// blocks).
pub const SEG_VERSION: u32 = 3;
/// `kind` byte for a Regular-Prüfer segment.
pub const SEG_KIND_RP: u8 = 0;
/// `kind` byte for an Extended-Prüfer segment.
pub const SEG_KIND_EP: u8 = 1;
/// The frame of a segment: all twelve words, any kind byte (the
/// manifest row says which one the file must carry).
const SEG_FORMAT: Format = Format {
    what: "segment",
    magic: *b"PRIXSEG\0",
    version: SEG_VERSION,
    kind: None,
    words: 12,
};

/// One Prüfer sequence headed for a segment: its label path through the
/// virtual trie, the per-position fine gaps, and the (local) document
/// id. Ordered by `(path, doc)` — the gaps are payload, not key — so a
/// sort puts every sequence in trie DFS order with ends per node in
/// ascending doc order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathEntry {
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
pub(crate) struct TagEntry {
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

/// In a block: `sym, left` in full at a restart, `left − previous left`
/// (never 0: keys are distinct) within a symbol's run; then
/// `right − left`, `level`, `fine_gap`. A fence is `sym u32 | left u64`.
impl PackedRow for TagEntry {
    type Key = (u32, u64);
    const FENCE_LEN: usize = 12;
    const MIN_LEN: usize = 4;
    const NAME: &'static str = "tag";

    fn key(&self) -> (u32, u64) {
        (self.sym, self.left)
    }

    fn put_fence(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sym.to_le_bytes());
        out.extend_from_slice(&self.left.to_le_bytes());
    }

    fn fence(b: &[u8]) -> (u32, u64) {
        (
            u32::from_le_bytes(b[0..4].try_into().unwrap()),
            u64::from_le_bytes(b[4..12].try_into().unwrap()),
        )
    }

    fn breaks_run(&self, prev: &Self) -> bool {
        self.sym != prev.sym
    }

    fn encode(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let ascends = "tag rows arrive in key order, each range ending at or after its start";
        match prev {
            Some(p) => put_varint(out, self.left.checked_sub(p.left).expect(ascends)),
            None => {
                put_varint(out, u64::from(self.sym));
                put_varint(out, self.left);
            }
        }
        put_varint(out, self.right.checked_sub(self.left).expect(ascends));
        put_varint(out, u64::from(self.level));
        put_varint(out, u64::from(self.fine_gap));
    }

    #[inline]
    fn decode(b: &mut &[u8], prev: Option<&Self>) -> Option<Self> {
        // Inside a run nearly every row is four one-byte varints: one
        // test for all of them.
        if let (Some(p), Some(&[delta, width, level, fine_gap])) = (prev, b.first_chunk()) {
            if (delta | width | level | fine_gap) < 0x80 && delta != 0 {
                *b = &b[4..];
                let left = p.left.checked_add(u64::from(delta))?;
                return Some(TagEntry {
                    sym: p.sym,
                    left,
                    right: left.checked_add(u64::from(width))?,
                    level: u32::from(level),
                    fine_gap: u32::from(fine_gap),
                });
            }
        }
        let (sym, left) = match prev {
            Some(p) => (
                p.sym,
                p.left.checked_add(take_varint(b).filter(|&d| d != 0)?)?,
            ),
            None => (take_varint32(b)?, take_varint(b)?),
        };
        Some(TagEntry {
            sym,
            left,
            right: left.checked_add(take_varint(b)?)?,
            level: take_varint32(b)?,
            fine_gap: take_varint32(b)?,
        })
    }

    fn decode_key(mut b: &[u8]) -> Option<(u32, u64)> {
        Some((take_varint32(&mut b)?, take_varint(&mut b)?))
    }
}

/// In a sort run: the five fields at their full width.
impl SortItem for TagEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sym.to_le_bytes());
        out.extend_from_slice(&self.left.to_le_bytes());
        out.extend_from_slice(&self.right.to_le_bytes());
        out.extend_from_slice(&self.level.to_le_bytes());
        out.extend_from_slice(&self.fine_gap.to_le_bytes());
    }

    fn decode(r: &mut RunBuf) -> Result<Self> {
        let mut b = [0u8; 28];
        r.take(&mut b)?;
        Ok(TagEntry {
            sym: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            left: u64::from_le_bytes(b[4..12].try_into().unwrap()),
            right: u64::from_le_bytes(b[12..20].try_into().unwrap()),
            level: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            fine_gap: u32::from_le_bytes(b[24..28].try_into().unwrap()),
        })
    }

    fn mem_size(&self) -> usize {
        std::mem::size_of::<TagEntry>()
    }
}

/// One Docid row of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct DocEnd {
    /// LeftPos of the trie node where the sequence ends.
    pub left: u64,
    /// Local document id.
    pub doc: u32,
}

/// In a block: `left` in full at a restart, else `left − previous left`
/// (0 among the documents that end on one node, in ascending order);
/// then `doc`. A fence is `left u64`.
impl PackedRow for DocEnd {
    type Key = u64;
    const FENCE_LEN: usize = 8;
    const MIN_LEN: usize = 2;
    const NAME: &'static str = "doc";

    fn key(&self) -> u64 {
        self.left
    }

    fn put_fence(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.left.to_le_bytes());
    }

    fn fence(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[0..8].try_into().unwrap())
    }

    fn breaks_run(&self, _: &Self) -> bool {
        false
    }

    fn encode(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let delta = self.left.checked_sub(prev.map_or(0, |p| p.left));
        put_varint(out, delta.expect("doc-end rows arrive in key order"));
        put_varint(out, u64::from(self.doc));
    }

    fn decode(b: &mut &[u8], prev: Option<&Self>) -> Option<Self> {
        let left = prev.map_or(0, |p| p.left).checked_add(take_varint(b)?)?;
        let end = DocEnd {
            left,
            doc: take_varint32(b)?,
        };
        prev.is_none_or(|p| *p < end).then_some(end)
    }

    fn decode_key(mut b: &[u8]) -> Option<u64> {
        take_varint(&mut b)
    }
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
/// sequences passing through. Finished tag rows leave at node pop, in
/// postorder, so they go to a second sort by `(sym, left)`; doc-end
/// rows come out in `(left, doc)` order already and are tiny (one per
/// document), so they stay in memory.
struct StreamTrie {
    stack: Vec<TrieFrame>,
    prev_path: Vec<u32>,
    counter: u64,
    stats: SegTrieStats,
    tags: ExternalSorter<TagEntry>,
    doc_ends: Vec<DocEnd>,
}

impl StreamTrie {
    fn new(tags: ExternalSorter<TagEntry>) -> Self {
        StreamTrie {
            stack: Vec::new(),
            prev_path: Vec::new(),
            counter: 0,
            stats: SegTrieStats::default(),
            tags,
            doc_ends: Vec::new(),
        }
    }

    fn pop(&mut self) -> Result<()> {
        let f = self.stack.pop().expect("pop on empty trie stack");
        if !f.has_child {
            self.stats.leaves += 1;
            if f.weight > self.stats.max_path_sharing {
                self.stats.max_path_sharing = f.weight;
            }
        }
        self.tags.push(TagEntry {
            sym: f.sym,
            left: f.left,
            right: self.counter.max(f.left),
            level: f.level,
            fine_gap: f.fine_gap,
        })
    }

    fn insert(&mut self, e: &PathEntry) -> Result<()> {
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
            self.pop()?;
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
        let end = DocEnd {
            left: self.stack.last().map_or(0, |f| f.left),
            doc: e.doc,
        };
        debug_assert!(self.doc_ends.last().is_none_or(|p| *p < end));
        self.doc_ends.push(end);
        self.prev_path.clear();
        self.prev_path.extend_from_slice(&e.path);
        Ok(())
    }

    /// The trie's statistics, its tag rows (still to be drained in
    /// `(sym, left)` order) and its doc-end rows.
    fn finish(mut self) -> Result<(SegTrieStats, ExternalSorter<TagEntry>, Vec<DocEnd>)> {
        while !self.stack.is_empty() {
            self.pop()?;
        }
        Ok((self.stats, self.tags, self.doc_ends))
    }
}

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

#[derive(Debug, Default, PartialEq, Eq)]
struct Header {
    kind: u8,
    doc_base: u32,
    n_docs: u32,
    n_tag: u64,
    n_doc: u64,
    /// Blocks of the two row sections: not stored, but what separates
    /// each section's offset from its fences'.
    tag_blocks: u64,
    doc_blocks: u64,
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
    /// The version-3 geometry, in one place: every section offset
    /// follows from the document count, where the record data ends, how
    /// many blocks each row section packed into and how long the meta
    /// blob is — the fields `self` must hold. The builder writes the
    /// header this returns; [`Header::from_frame`] refuses one that
    /// differs from it. `None` when the sizes overflow.
    fn lay_out(self) -> Option<Header> {
        let block = SEG_BLOCK as u64;
        let align = |x: u64| x.div_ceil(block).checked_mul(block);
        let fences = |blocks: u64, len: usize| blocks.checked_mul(len as u64);
        let tag_off = align(
            self.rec_idx_off
                .checked_add((u64::from(self.n_docs) + 1) * 8)?,
        )?;
        let tag_fence_off = tag_off.checked_add(self.tag_blocks.checked_mul(block)?)?;
        let doc_off =
            align(tag_fence_off.checked_add(fences(self.tag_blocks, TagEntry::FENCE_LEN)?)?)?;
        let doc_fence_off = doc_off.checked_add(self.doc_blocks.checked_mul(block)?)?;
        let meta_off = doc_fence_off.checked_add(fences(self.doc_blocks, DocEnd::FENCE_LEN)?)?;
        let crc_off = meta_off.checked_add(self.meta_len)?;
        let file_len = crc_off.checked_add(crc_off.div_ceil(block).checked_mul(4)?)?;
        Some(Header {
            rec_data_off: SEG_HEADER_LEN,
            tag_off,
            tag_fence_off,
            doc_off,
            doc_fence_off,
            meta_off,
            crc_off,
            file_len,
            ..self
        })
    }

    /// The header as a frame: which word is which field.
    fn frame(&self) -> Frame {
        Frame {
            kind: self.kind,
            doc_base: self.doc_base,
            n_docs: self.n_docs,
            words: [
                self.n_tag,
                self.n_doc,
                self.rec_idx_off,
                self.rec_data_off,
                self.tag_off,
                self.tag_fence_off,
                self.doc_off,
                self.doc_fence_off,
                self.meta_off,
                self.meta_len,
                self.crc_off,
                self.file_len,
            ],
        }
    }

    /// The header a frame stores, if the frame is exactly what
    /// [`Header::lay_out`] derives from the counts and block counts it
    /// stores — which rules out sections out of order, overlapping,
    /// misaligned or past the end of the file — and each row count is
    /// one its section's blocks can hold. (A row count can still be
    /// wrong within that bound, and `rec_idx_off` can move within the
    /// padding before the tag section; no read leaves the file then,
    /// and [`SegmentReader::verify`] reports the rows that disagree.)
    fn from_frame(f: &Frame) -> Option<Header> {
        let [n_tag, n_doc, rec_idx_off, _, tag_off, tag_fence_off, doc_off, doc_fence_off, _, meta_len, _, _] =
            f.words;
        let blocks =
            |off: u64, fence_off: u64| Some(fence_off.checked_sub(off)? / SEG_BLOCK as u64);
        let hdr = Header {
            kind: f.kind,
            doc_base: f.doc_base,
            n_docs: f.n_docs,
            n_tag,
            n_doc,
            tag_blocks: blocks(tag_off, tag_fence_off)?,
            doc_blocks: blocks(doc_off, doc_fence_off)?,
            rec_idx_off,
            meta_len,
            ..Header::default()
        }
        .lay_out()?;
        let holds = |blocks: u64, rows: u64, most: u64| {
            blocks <= rows && rows <= blocks.saturating_mul(most)
        };
        (rec_idx_off >= SEG_HEADER_LEN
            && hdr.frame() == *f
            && holds(hdr.tag_blocks, n_tag, PackedRows::<TagEntry>::MAX_PER_BLOCK)
            && holds(hdr.doc_blocks, n_doc, PackedRows::<DocEnd>::MAX_PER_BLOCK))
        .then_some(hdr)
    }
}

/// Writes one immutable segment: stream documents in (records go
/// straight to the output file, label paths to the external sorter),
/// then [`SegmentBuilder::finish`] merges the runs through the
/// streaming trie and lays out the remaining sections.
pub struct SegmentBuilder {
    /// One sequential writer from the first record to the CRC table.
    w: SeqWriter,
    temp: Arc<Mutex<TempFactory>>,
    kind: u8,
    doc_base: u32,
    run_budget: usize,
    sorter: ExternalSorter<PathEntry>,
    rec_offsets: Vec<u64>,
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
            w: SeqWriter::new(out, SEG_HEADER_LEN),
            temp,
            kind,
            doc_base,
            run_budget: run_mem_bytes,
            sorter,
            rec_offsets: vec![0],
        }
    }

    /// Adds one document: its opaque refinement record and its label
    /// path + fine gaps. Returns the local document id.
    pub fn add_doc(&mut self, record: &[u8], path: Vec<u32>, gaps: Vec<u32>) -> Result<u32> {
        debug_assert_eq!(path.len(), gaps.len());
        let doc = (self.rec_offsets.len() - 1) as u32;
        self.w.push(record)?;
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
    pub fn finish(self, make_meta: impl FnOnce(&SegTrieStats) -> Vec<u8>) -> Result<SegTrieStats> {
        // The record index follows the records; the header offsets
        // come from `Header::lay_out` and the writer must agree with it.
        let mut w = self.w;
        let n_docs = (self.rec_offsets.len() - 1) as u32;
        let rec_idx_off = w.pos();
        for &o in &self.rec_offsets {
            w.push(&o.to_le_bytes())?;
        }
        w.pad_to_block();

        // Merge the path runs through the streaming trie.
        let tag_sorter = ExternalSorter::new(self.run_budget, fwd_temp(&self.temp));
        let mut trie = StreamTrie::new(tag_sorter);
        self.sorter.drain(|e| trie.insert(&e))?;
        let (stats, tag_sorter, doc_ends) = trie.finish()?;

        // Tag rows packed into blocks, then their fences (the first key
        // of every block).
        let n_tag = tag_sorter.len();
        let mut tags = RowPacker::new();
        let mut prev_key: Option<(u32, u64)> = None;
        tag_sorter.drain(|t| {
            debug_assert!(prev_key.is_none_or(|p| p < t.key()), "duplicate tag key");
            prev_key = Some(t.key());
            tags.push(&mut w, &t)
        })?;
        tags.flush(&mut w)?;
        w.push(&tags.fences)?;
        w.pad_to_block();

        // Doc ends + fences, laid out the same way.
        let mut docs = RowPacker::new();
        for d in &doc_ends {
            docs.push(&mut w, d)?;
        }
        docs.flush(&mut w)?;
        w.push(&docs.fences)?;

        // Meta, header, CRC table.
        let meta = make_meta(&stats);
        w.push(&meta)?;
        let header = Header {
            kind: self.kind,
            doc_base: self.doc_base,
            n_docs,
            n_tag,
            n_doc: doc_ends.len() as u64,
            tag_blocks: tags.blocks(),
            doc_blocks: docs.blocks(),
            rec_idx_off,
            meta_len: meta.len() as u64,
            ..Header::default()
        }
        .lay_out()
        .ok_or_else(|| corrupt("segment too large".into()))?;
        let frame = header.frame().encode(&SEG_FORMAT);
        seal(w, &frame, header.crc_off, header.file_len)?;
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Segment reader
// ---------------------------------------------------------------------------

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

/// Where the bytes of one segment file are ([`SegmentReader::layout`]):
/// the sections' lengths, and the rows and blocks of the two packed
/// sections. What is left of `file_bytes` is the frame and the zeros
/// that align the two row sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    /// Per-document refinement records.
    pub record_bytes: u64,
    /// Their `n_docs + 1` offsets.
    pub record_index_bytes: u64,
    /// The Trie-Symbol section (whole blocks).
    pub tag_bytes: u64,
    /// Its rows.
    pub tag_rows: u64,
    /// Its blocks.
    pub tag_blocks: u64,
    /// The Docid section (whole blocks).
    pub doc_bytes: u64,
    /// Its rows.
    pub doc_rows: u64,
    /// Its blocks.
    pub doc_blocks: u64,
    /// Both sections' stored fences.
    pub fence_bytes: u64,
    /// The meta blob.
    pub meta_bytes: u64,
    /// The CRC table.
    pub crc_bytes: u64,
    /// The whole file.
    pub file_bytes: u64,
}

/// Read handle over one immutable segment file: direct [`RawStore`]
/// reads through a tiny per-segment block cache, never touching the
/// buffer pool. Both fence arrays are resident, so a lookup is one
/// in-memory binary search, one binary search over the restarts of one
/// cached block and a decode of at most 16 rows.
pub struct SegmentReader {
    file: BlockFile,
    hdr: Header,
    tags: Section<PackedRows<TagEntry>>,
    docs: Section<PackedRows<DocEnd>>,
}

impl SegmentReader {
    /// Opens a segment: validates the header against the file and
    /// loads both fence arrays (16 bytes of memory per 4 KiB block of
    /// rows). Segment block reads are recorded into `stats`.
    pub fn open(store: Box<dyn RawStore>, stats: Arc<IoStats>) -> Result<SegmentReader> {
        let hdr = Frame::open(&*store, &SEG_FORMAT, Header::from_frame)?;
        let tags = PackedRows::open(&*store, hdr.tag_off, hdr.tag_fence_off, hdr.tag_blocks)?;
        let docs = PackedRows::open(&*store, hdr.doc_off, hdr.doc_fence_off, hdr.doc_blocks)?;
        Ok(SegmentReader {
            file: BlockFile::new(store, stats, hdr.file_len),
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

    /// Bytes of memory the two resident fence arrays occupy.
    pub fn fence_bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.tags.fences[..])
            + std::mem::size_of_val(&self.docs.fences[..])) as u64
    }

    /// Where the file's bytes are, from its header.
    pub fn layout(&self) -> SegmentLayout {
        let h = &self.hdr;
        SegmentLayout {
            record_bytes: h.rec_idx_off - h.rec_data_off,
            record_index_bytes: (u64::from(h.n_docs) + 1) * 8,
            tag_bytes: h.tag_fence_off - h.tag_off,
            tag_rows: h.n_tag,
            tag_blocks: h.tag_blocks,
            doc_bytes: h.doc_fence_off - h.doc_off,
            doc_rows: h.n_doc,
            doc_blocks: h.doc_blocks,
            fence_bytes: h.tag_blocks * TagEntry::FENCE_LEN as u64
                + h.doc_blocks * DocEnd::FENCE_LEN as u64,
            meta_bytes: h.meta_len,
            crc_bytes: h.file_len - h.crc_off,
            file_bytes: h.file_len,
        }
    }

    /// Range query on the Trie-Symbol section: rows with this `sym` and
    /// `left` in `(ql, qr]`, in key order — the segment-side mirror of
    /// the B⁺-tree `scan_tag_range`.
    pub fn scan_tag_range(&self, sym: u32, ql: u64, qr: u64) -> Result<Vec<(u64, u64, u32, u32)>> {
        let mut hits = Vec::new();
        self.tags.scan(
            &self.file,
            |&k| k <= (sym, ql),
            |&k| k > (sym, qr),
            |_, e| {
                hits.push((e.left, e.right, e.level, e.fine_gap));
                true
            },
        )?;
        Ok(hits)
    }

    /// Range query on the Docid section: local doc ids whose end-node
    /// left is in `[left, right]`, in `(left, doc)` order.
    pub fn scan_docids(&self, left: u64, right: u64, out: &mut impl FnMut(u32)) -> Result<()> {
        self.docs.scan(
            &self.file,
            |&k| k < left,
            |&k| k > right,
            |_, e| {
                out(e.doc);
                true
            },
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
        check.blocks = check_crc_table(store, self.hdr.crc_off)?;
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
        let fence_end = self.hdr.tag_fence_off + self.hdr.tag_blocks * TagEntry::FENCE_LEN as u64;
        for (from, to) in [(idx_end, self.hdr.tag_off), (fence_end, self.hdr.doc_off)] {
            let mut gap = vec![0u8; (to - from) as usize];
            store.read_at(from, &mut gap)?;
            if gap.iter().any(|&b| b != 0) {
                return Err(corrupt(format!("alignment padding at {from} is not zero")));
            }
        }
        // Both row sections: the block codec vouches for each block
        // (restart table, whole rows, order inside a run, count, fence,
        // padding); what is left is the order across restarts and
        // blocks, and the header's count.
        let counted = |name: &str, seen: u64, want: u64| {
            if seen == want {
                return Ok(seen);
            }
            Err(corrupt(format!(
                "{name} section holds {seen} rows, its header says {want}"
            )))
        };
        // Tag section: strict (sym, left) ascending.
        let mut prev_key: Option<(u32, u64)> = None;
        let seen = self.tags.verify(store, "tag", |n, &key, _| {
            if prev_key.is_some_and(|p| key <= p) {
                return Err(corrupt(format!("tag entry {n} out of order")));
            }
            prev_key = Some(key);
            Ok(())
        })?;
        check.tag_entries = counted("tag", seen, self.hdr.n_tag)?;
        // Doc section: strict (left, doc) ascending, docs in range.
        let mut prev_doc: Option<DocEnd> = None;
        let seen = self.docs.verify(store, "doc", |n, _, end| {
            if prev_doc.is_some_and(|p| *end <= p) {
                return Err(corrupt(format!("doc entry {n} out of order")));
            }
            if end.doc >= self.hdr.n_docs {
                let doc = end.doc;
                return Err(corrupt(format!("doc entry {n} references document {doc}")));
            }
            prev_doc = Some(*end);
            Ok(())
        })?;
        check.doc_entries = counted("doc", seen, self.hdr.n_doc)?;
        Ok(check)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::blockfile::tests::{patch_header, FileKind};
    use super::super::blockfile::RESTART_EVERY;
    use super::super::env::{env_temp_factory, MemSegEnv, SegmentEnv};
    use super::*;
    use crate::error::StorageError;
    use crate::store::MemStore;
    use std::collections::BTreeMap;

    pub(crate) fn lcg(state: &mut u64) -> u64 {
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
    pub(crate) fn sample_paths(n: usize, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
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
    pub(crate) fn record_of(i: usize) -> Vec<u8> {
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
        build_segment_as(paths, run_mem, SEG_KIND_RP, 0)
    }

    pub(crate) fn build_segment_as(
        paths: &[(Vec<u32>, Vec<u32>)],
        run_mem: usize,
        kind: u8,
        doc_base: u32,
    ) -> (Arc<MemSegEnv>, SegTrieStats) {
        let env = Arc::new(MemSegEnv::new());
        let out = env.create(".t.seg").unwrap();
        let env_dyn: Arc<dyn SegmentEnv> = Arc::<MemSegEnv>::clone(&env);
        let mut b = SegmentBuilder::new(out, env_temp_factory(&env_dyn), kind, doc_base, run_mem);
        for (i, (path, gaps)) in paths.iter().enumerate() {
            b.add_doc(&record_of(i), path.clone(), gaps.clone())
                .unwrap();
        }
        let stats = b
            .finish(|st| format!("meta:{}", st.nodes).into_bytes())
            .unwrap();
        (env, stats)
    }

    pub(crate) fn oracle_rows(paths: &[(Vec<u32>, Vec<u32>)]) -> (Vec<TagEntry>, Vec<DocEnd>) {
        let mut oracle = RefTrie::new();
        for (doc, (p, g)) in paths.iter().enumerate() {
            oracle.insert(p, g, doc as u32);
        }
        oracle.label()
    }

    /// 60 random paths over symbols 2..=7, one chain of `chain` nodes of
    /// symbol 9 (so one symbol's rows fill several blocks), and copies
    /// of the first path up to `n_doc` documents (so one `left` fills
    /// several doc blocks).
    fn sized_paths(chain: usize, n_doc: usize, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut paths = sample_paths(60, seed);
        for (p, _) in &mut paths {
            p.iter_mut().for_each(|s| *s += 2);
        }
        paths.push((vec![9; chain], (0..chain as u32).map(|g| g % 50).collect()));
        let filler = paths[0].clone();
        paths.resize(n_doc, filler);
        paths
    }

    /// The indexes, in a section's sorted rows, of every row that opens
    /// a block (from the blocks' own counts in `file`) and of every
    /// restart (the packer's rule replayed over the oracle rows).
    fn block_starts_and_restarts<R: PackedRow>(
        rows: &[R],
        file: &[u8],
        sec: &Section<PackedRows<R>>,
    ) -> [Vec<usize>; 2] {
        let mut starts = vec![0];
        for g in 0..sec.fences.len() {
            let at = (sec.first_block as usize + g) * SEG_BLOCK;
            let n_rows = u16::from_le_bytes([file[at], file[at + 1]]);
            starts.push(starts[g] + usize::from(n_rows));
        }
        assert_eq!(starts.pop(), Some(rows.len()), "the blocks hold every row");
        let (mut restarts, mut run) = (Vec::new(), 0);
        for (i, row) in rows.iter().enumerate() {
            if starts.contains(&i) || run == RESTART_EVERY || row.breaks_run(&rows[i - 1]) {
                restarts.push(i);
                run = 0;
            }
            run += 1;
        }
        [starts, restarts]
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
        assert_eq!(r.hdr.n_tag, exp_tags.len() as u64);
        assert_eq!(r.hdr.n_doc, exp_ends.len() as u64);
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
        // Several blocks of one symbol and of one `left`: every bound
        // that is the key of a row next to a block boundary or next to
        // a restart (and its neighbours), the extremes, inverted ranges
        // (each pair is tried both ways round), and symbols below,
        // between and above the stored ones.
        let syms = [0, 1, 2, 5, 7, 8, 9, 10, u32::MAX];
        let paths = sized_paths(3000, 4500, 21);
        let (exp_tags, exp_ends) = oracle_rows(&paths);
        let (env, _) = build_segment(&paths, 1 << 20);
        let r = open_reader(&env);
        let file = env.store(".t.seg").unwrap().snapshot();
        let [tag_starts, tag_restarts] = block_starts_and_restarts(&exp_tags, &file, &r.tags);
        let [doc_starts, doc_restarts] = block_starts_and_restarts(&exp_ends, &file, &r.docs);
        let of_chain = |starts: &[usize]| starts.iter().filter(|&&i| exp_tags[i].sym == 9).count();
        assert!(of_chain(&tag_starts) >= 3, "the chain must open 3 blocks");
        assert!(doc_starts.len() >= 3, "one left must fill 3 doc blocks");
        let mut bounds = vec![0, 1, u64::MAX - 1, u64::MAX];
        // The rows either side of every block boundary, of the first
        // two restarts inside every block and of the last.
        let mut next_to = |lefts: &[u64], starts: &[usize], restarts: &[usize]| {
            for (g, &at) in starts.iter().enumerate() {
                let end = starts.get(g + 1).map_or(lefts.len(), |&e| e);
                let inside: Vec<usize> = restarts
                    .iter()
                    .copied()
                    .filter(|&i| at < i && i < end)
                    .collect();
                let picked = inside.iter().take(2).chain(inside.last());
                for &i in picked.chain([&at]) {
                    for left in [lefts[i.saturating_sub(1)], lefts[i]] {
                        bounds.extend([left.saturating_sub(1), left, left + 1]);
                    }
                }
            }
        };
        let lefts: Vec<u64> = exp_tags.iter().map(|t| t.left).collect();
        next_to(&lefts, &tag_starts, &tag_restarts);
        let lefts: Vec<u64> = exp_ends.iter().map(|e| e.left).collect();
        next_to(&lefts, &doc_starts, &doc_restarts);
        bounds.sort_unstable();
        bounds.dedup();
        check_scans(&r, &exp_tags, &exp_ends, &syms, &bounds);
        r.verify().unwrap();
        // The empty segment answers every range with nothing.
        let (env, _) = build_segment(&[], 1 << 20);
        check_scans(&open_reader(&env), &[], &[], &syms, &[0, 1, u64::MAX]);
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

    #[test]
    fn open_rejects_bad_magic_truncation_and_version_2() {
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
        let err = match try_open(&patch_header(&good, 8, 4, |_| 2)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version-2 segment must be refused"),
        };
        assert!(
            err.contains("version 2") && err.contains("re-index the source documents"),
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
        // a whole block (alignment kept), by a thousand, or to something
        // huge.
        let fields = [(20, 4), (24, 8), (32, 8)]
            .into_iter()
            .chain((40..120).step_by(8).map(|at| (at, 8)));
        for (at, width) in fields {
            let perturb: [fn(u64) -> u64; 5] = [
                |v| v + 1,
                |v| v.wrapping_sub(1),
                |v| v + SEG_BLOCK as u64,
                |v| v + 1000,
                |_| u64::MAX / 2,
            ];
            for f in perturb {
                match try_open(&patch_header(&good, at, width, f)) {
                    Err(StorageError::Corrupt { .. }) => {}
                    Err(e) => panic!("field at {at}: wrong error {e}"),
                    // A row count can move within what its blocks could
                    // hold, and the end of the record data inside the
                    // padding before the next aligned section: the rows
                    // then disagree with the header, and verify says so.
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
        // The cost model: a lookup whose hits lie inside one block is
        // one block read, fetched the first time and cached after, and
        // nothing before it (open included) touched the cache. 500 rows
        // of one symbol fit one block (format 2 spread them over four).
        let (env, _) = build_segment(&sized_paths(3000, 70, 13), 1 << 20);
        let stats = Arc::new(IoStats::default());
        let r = SegmentReader::open(env.open(".t.seg").unwrap(), Arc::clone(&stats)).unwrap();
        let fences = &r.tags.fences;
        let g = (0..fences.len() - 1)
            .find(|&g| fences[g].0 == 9 && fences[g + 1].0 == 9)
            .expect("a block of nothing but the chain");
        let ql = fences[g].1;
        assert!(ql + 500 < fences[g + 1].1, "500 rows inside block {g}");
        for fetches in [1, 0] {
            let before = stats.snapshot();
            assert_eq!(r.scan_tag_range(9, ql, ql + 500).unwrap().len(), 500);
            let after = stats.snapshot();
            assert_eq!(after.seg_block_reads - before.seg_block_reads, 1);
            assert_eq!(after.seg_block_fetches - before.seg_block_fetches, fetches);
        }
        let paths = sample_paths(400, 13);
        let (env, _) = build_segment(&paths, 1 << 20);
        let stats = Arc::new(IoStats::default());
        let r = SegmentReader::open(env.open(".t.seg").unwrap(), Arc::clone(&stats)).unwrap();
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

    /// The structural segment under [`FileKind`]'s hostile-bytes loop:
    /// `scan_tag_range` over every symbol, `scan_docids` over the whole
    /// range, `record` of every document and `meta`.
    pub(crate) fn hostile_kind() -> FileKind {
        fn read_all(bytes: Vec<u8>) -> Option<String> {
            let r = try_open(&bytes).ok()?;
            let verified = r.verify().is_ok();
            let tags: Result<Vec<_>> = (0..6)
                .map(|sym| r.scan_tag_range(sym, 0, u64::MAX))
                .collect();
            let mut docs = Vec::new();
            let scanned = r.scan_docids(0, u64::MAX, &mut |d| docs.push(d));
            let records: Result<Vec<_>> = (0..r.n_docs()).map(|d| r.record(d)).collect();
            let meta = r.meta();
            if !verified {
                return None;
            }
            scanned.ok()?;
            Some(format!(
                "{:?}",
                (tags.ok()?, docs, records.ok()?, meta.ok()?)
            ))
        }
        let paths = sample_paths(200, 43);
        let (env, stats) = build_segment_as(&paths, 1 << 20, SEG_KIND_EP, 100);
        let good = env.store(".t.seg").unwrap().snapshot();
        let (exp_tags, exp_ends) = oracle_rows(&paths);
        let tags: Vec<Vec<_>> = (0..6)
            .map(|sym| {
                let of_sym = exp_tags.iter().filter(|t| t.sym == sym);
                of_sym
                    .map(|t| (t.left, t.right, t.level, t.fine_gap))
                    .collect()
            })
            .collect();
        let docs: Vec<u32> = exp_ends.iter().map(|e| e.doc).collect();
        let records: Vec<Vec<u8>> = (0..paths.len()).map(record_of).collect();
        let meta = format!("meta:{}", stats.nodes).into_bytes();
        FileKind {
            name: "hostile_segment",
            resident: try_open(&good).unwrap().hdr.tag_fence_off,
            good,
            oracle: format!("{:?}", (tags, docs, records, meta)),
            read_all,
            prefixes: false,
        }
    }
}
