//! Structural segments: one index flavor (RP or EP) for a contiguous
//! range of document ids (`doc_base .. doc_base + n_docs`), bulk-loaded
//! into an implicit B⁺-tree file. Format version 5, on the frame, CRC
//! table and sections of [`super::blockfile`]:
//!
//! ```text
//! +--------+----------+---------+-----+------------+------------+-----+------------+------------+------+-----------+
//! | header | rec data | rec idx | pad | tag blocks | tag fences | pad | doc blocks | doc fences | meta | CRC table |
//! +--------+----------+---------+-----+------------+------------+-----+------------+------------+------+-----------+
//!            ^ EP files only          ^ block-aligned                 ^ block-aligned
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
//!   length and the file length. Every offset follows from the kind, the
//!   document count, the end of the record data and the number of blocks
//!   each row section packed into — which the header stores as the
//!   distance from a section's offset to its fences' (`Header::lay_out`);
//!   a header that disagrees with that arithmetic, or whose row counts
//!   its blocks could not hold, is refused at open.
//! * **rec data** — per-document refinement records (opaque blobs; the
//!   core layer writes varints), each behind its byte length as a
//!   varint, laid out in the order of the tier's RP Docid section — the
//!   `(left, doc)` order of the RP file's doc-end rows — so the
//!   documents one filter match hands to refinement, one `[left, right]`
//!   range of that section, sit side by side. A tier keeps its records
//!   once, in its EP file ([`SEG_KIND_EP`]); an RP file has neither
//!   section, and its tag section follows the header's block.
//! * **rec idx** — `n_docs + 1` little-endian `u64`s, by document id:
//!   entry `doc` is where that document's record starts in the record
//!   data, entry `n_docs` the record data's length. The records tile
//!   their section: sorted by offset, each starts where the one before
//!   it ends, no two documents share one, and the last ends at entry
//!   `n_docs` ([`SegmentReader::verify`] checks all of it).
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
//! Versions 1 (unpadded groups, fences searched on disk), 2
//! (fixed-width rows, 146 to a block, raw `u32` records), 3 (a record
//! section in both files of a tier) and 4 (records in document-id
//! order, unprefixed) are refused at open: re-index.
//!
//! The builder sorts label paths once with bounded memory
//! ([`super::sort`]), streams them through a virtual trie that assigns
//! §5.2.1's labels exactly (a DFS numbering), sorts the finished tag
//! rows a second time and lays the sections out. [`label_paths`] runs
//! the same trie over label paths held in memory (the ViST baseline's
//! index is labeled by it).

use std::sync::Arc;

use super::blockfile::{
    check_crc_table, corrupt, put_varint, seal, take_varint, take_varint32, BlockCache, BlockFile,
    FixedRow, Format, Frame, PackedRow, RowPacker, Section, SeqWriter, CACHE_BLOCKS, SEG_BLOCK,
    SEG_HEADER_LEN,
};
use super::sort::{ExternalSorter, RunBuf, SortItem, TempFactory};
use crate::error::Result;
use crate::stats::IoStats;
use crate::store::RawStore;
use crate::sync::Mutex;

/// Segment format version (5: packed varint rows in self-contained
/// blocks, records in the EP file only, length-prefixed, in the order
/// of the tier's RP Docid section).
pub const SEG_VERSION: u32 = 5;
/// `kind` byte for a Regular-Prüfer segment.
pub const SEG_KIND_RP: u8 = 0;
/// `kind` byte for an Extended-Prüfer segment: the file of a tier that
/// holds its records.
pub const SEG_KIND_EP: u8 = 1;

/// Bytes of the record index of a segment of `kind` over `n_docs`
/// documents: `n_docs + 1` offsets in an EP file, nothing in an RP file.
fn rec_idx_len(kind: u8, n_docs: u32) -> u64 {
    match kind {
        SEG_KIND_EP => (u64::from(n_docs) + 1) * 8,
        _ => 0,
    }
}
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
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

/// In a block: `sym, left` in full at a restart, `left − previous left`
/// (never 0: keys are distinct) within a symbol's run; then
/// `right − left`, `level`, `fine_gap`. A fence is `sym u32 | left u64`.
impl PackedRow for TagEntry {
    type Key = (u32, u64);
    type Fence = (u32, u64);
    const MIN_LEN: usize = 4;
    const NAME: &'static str = "tag";

    fn with_key<T>(&self, f: impl FnOnce(&(u32, u64)) -> T) -> T {
        f(&(self.sym, self.left))
    }

    fn fence_key(fence: &(u32, u64)) -> &(u32, u64) {
        fence
    }

    fn put_fence(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sym.to_le_bytes());
        out.extend_from_slice(&self.left.to_le_bytes());
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
    fn decode(&mut self, b: &mut &[u8], restart: bool) -> Option<()> {
        // Inside a run nearly every row is four one-byte varints: one
        // test for all of them.
        if let (false, Some(&[delta, width, level, fine_gap])) = (restart, b.first_chunk()) {
            if (delta | width | level | fine_gap) < 0x80 && delta != 0 {
                *b = &b[4..];
                self.left = self.left.checked_add(u64::from(delta))?;
                self.right = self.left.checked_add(u64::from(width))?;
                (self.level, self.fine_gap) = (u32::from(level), u32::from(fine_gap));
                return Some(());
            }
        }
        if restart {
            (self.sym, self.left) = (take_varint32(b)?, take_varint(b)?);
        } else {
            self.left = self.left.checked_add(take_varint(b).filter(|&d| d != 0)?)?;
        }
        self.right = self.left.checked_add(take_varint(b)?)?;
        (self.level, self.fine_gap) = (take_varint32(b)?, take_varint32(b)?);
        Some(())
    }

    /// The key alone: the trie descent's narrow probes binary-search
    /// thousands of cached blocks a query, and the rest of a restart
    /// row is decoded when the walk reaches it.
    fn decode_restart(&mut self, mut b: &[u8]) -> Option<()> {
        (self.sym, self.left) = (take_varint32(&mut b)?, take_varint(&mut b)?);
        Some(())
    }
}

impl FixedRow for TagEntry {
    const FENCE_LEN: usize = 12;

    fn fence(b: &[u8]) -> (u32, u64) {
        (
            u32::from_le_bytes(b[0..4].try_into().unwrap()),
            u64::from_le_bytes(b[4..12].try_into().unwrap()),
        )
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct DocEnd {
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
    type Fence = u64;
    const MIN_LEN: usize = 2;
    const NAME: &'static str = "doc";

    fn with_key<T>(&self, f: impl FnOnce(&u64) -> T) -> T {
        f(&self.left)
    }

    fn fence_key(fence: &u64) -> &u64 {
        fence
    }

    fn put_fence(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.left.to_le_bytes());
    }

    fn breaks_run(&self, _: &Self) -> bool {
        false
    }

    fn encode(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let delta = self.left.checked_sub(prev.map_or(0, |p| p.left));
        put_varint(out, delta.expect("doc-end rows arrive in key order"));
        put_varint(out, u64::from(self.doc));
    }

    fn decode(&mut self, b: &mut &[u8], restart: bool) -> Option<()> {
        let prev = (!restart).then_some(*self);
        let left = prev.map_or(0, |p| p.left).checked_add(take_varint(b)?)?;
        *self = DocEnd {
            left,
            doc: take_varint32(b)?,
        };
        prev.is_none_or(|p| p < *self).then_some(())
    }
}

impl FixedRow for DocEnd {
    const FENCE_LEN: usize = 8;

    fn fence(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[0..8].try_into().unwrap())
    }
}

// ---------------------------------------------------------------------------
// Streaming trie labeler
// ---------------------------------------------------------------------------

/// Statistics of the virtual trie a set of label paths streamed
/// through.
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
/// `(path, doc)` order — through a virtual-trie DFS, assigning the
/// exact labels of §5.2.1: `left` = DFS first-visit rank (children in
/// symbol order, the root 0), `right` = max `left` in the subtree,
/// per-node fine gaps max-folded across the sequences passing through.
/// Finished tag rows leave through `sink` at node pop, in postorder;
/// doc-end rows come out in `(left, doc)` order already and are tiny
/// (one per document), so they stay in memory.
struct StreamTrie<S> {
    stack: Vec<TrieFrame>,
    prev_path: Vec<u32>,
    counter: u64,
    stats: SegTrieStats,
    sink: S,
    doc_ends: Vec<DocEnd>,
}

impl<S: FnMut(TagEntry) -> Result<()>> StreamTrie<S> {
    fn new(sink: S) -> Self {
        StreamTrie {
            stack: Vec::new(),
            prev_path: Vec::new(),
            counter: 0,
            stats: SegTrieStats::default(),
            sink,
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
        (self.sink)(TagEntry {
            sym: f.sym,
            left: f.left,
            right: self.counter.max(f.left),
            level: f.level,
            fine_gap: f.fine_gap,
        })
    }

    /// Inserts `doc`'s label path and its fine gaps (one per symbol).
    fn insert(&mut self, path: &[u32], gaps: &[u32], doc: u32) -> Result<()> {
        debug_assert!(
            (path, doc) >= (self.prev_path.as_slice(), 0),
            "path entries must arrive sorted"
        );
        self.stats.sequences += 1;
        self.stats.total_path_len += path.len() as u64;
        let common = self
            .prev_path
            .iter()
            .zip(path)
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
                f.fine_gap = gaps[i];
            } else {
                f.fine_gap = f.fine_gap.max(gaps[i]);
            }
        }
        for i in common..path.len() {
            if let Some(parent) = self.stack.last_mut() {
                parent.has_child = true;
            }
            self.counter += 1;
            self.stack.push(TrieFrame {
                sym: path[i],
                level: (i + 1) as u32,
                left: self.counter,
                fine_gap: gaps[i],
                weight: 1,
                has_child: false,
            });
            self.stats.nodes += 1;
        }
        let end = DocEnd {
            left: self.stack.last().map_or(0, |f| f.left),
            doc,
        };
        debug_assert!(self.doc_ends.last().is_none_or(|p| *p < end));
        self.doc_ends.push(end);
        self.prev_path.clear();
        self.prev_path.extend_from_slice(path);
        Ok(())
    }

    /// Pops what is left through the sink; returns the trie's
    /// statistics and its doc-end rows.
    fn finish(mut self) -> Result<(SegTrieStats, Vec<DocEnd>)> {
        while !self.stack.is_empty() {
            self.pop()?;
        }
        Ok((self.stats, self.doc_ends))
    }
}

/// Labels the virtual trie over `paths` — one `(label path, fine gaps,
/// document)` triple per document, the gaps one per symbol, in any
/// order — in memory, through the same streaming trie a segment build
/// runs, so the rows are the ones a segment of the same paths holds.
/// Returns the tag rows in `(sym, left)` order, the doc-end rows in
/// `(left, doc)` order and the trie's statistics.
pub fn label_paths<'a>(
    paths: impl IntoIterator<Item = (&'a [u32], &'a [u32], u32)>,
) -> (Vec<TagEntry>, Vec<DocEnd>, SegTrieStats) {
    let mut paths: Vec<_> = paths.into_iter().collect();
    paths.sort_unstable_by(|a, b| (a.0, a.2).cmp(&(b.0, b.2)));
    let mut tags = Vec::new();
    let mut trie = StreamTrie::new(|t| {
        tags.push(t);
        Ok(())
    });
    let in_memory = "an in-memory labeling cannot fail";
    for (path, gaps, doc) in paths {
        trie.insert(path, gaps, doc).expect(in_memory);
    }
    let (stats, doc_ends) = trie.finish().expect(in_memory);
    tags.sort_unstable();
    (tags, doc_ends, stats)
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
    /// The version-4 geometry, in one place: every section offset
    /// follows from the kind, the document count, where the record data
    /// ends, how
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
                .checked_add(rec_idx_len(self.kind, self.n_docs))?,
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
    /// one its section's blocks can hold, and an RP file's records end
    /// where they begin. (A row count can still be wrong within that
    /// bound, and an EP file's `rec_idx_off` can move within the padding
    /// before the tag section; no read leaves the file then, and
    /// [`SegmentReader::verify`] reports the rows that disagree.)
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
        let records_fit = match f.kind {
            SEG_KIND_EP => rec_idx_off >= SEG_HEADER_LEN,
            SEG_KIND_RP => rec_idx_off == SEG_HEADER_LEN,
            _ => false,
        };
        (records_fit
            && hdr.frame() == *f
            && holds(hdr.tag_blocks, n_tag, TagEntry::MAX_PER_BLOCK)
            && holds(hdr.doc_blocks, n_doc, DocEnd::MAX_PER_BLOCK))
        .then_some(hdr)
    }
}

/// An EP file's records in arrival order while its documents stream
/// in: in memory up to the sort budget, past it in a scratch store.
enum Spill {
    Mem(Vec<u8>),
    Store(SeqWriter),
}

/// Writes one immutable segment: stream documents in (an EP file's
/// records to a `Spill` in arrival order, label paths to the external
/// sorter), then [`SegmentBuilder::finish`] copies the records out in
/// the order it is given, merges the runs through the streaming trie
/// and lays out the remaining sections.
pub struct SegmentBuilder {
    /// One sequential writer from the first record to the CRC table.
    w: SeqWriter,
    temp: Arc<Mutex<TempFactory>>,
    kind: u8,
    doc_base: u32,
    run_budget: usize,
    sorter: ExternalSorter<PathEntry>,
    n_docs: u32,
    /// An EP file's records as they arrived, and where each ends there.
    spill: Spill,
    rec_ends: Vec<u64>,
}

/// Forwards a shared temp factory (the builder's two sort phases run
/// strictly in sequence but each sorter owns its own handle).
fn fwd_temp(shared: &Arc<Mutex<TempFactory>>) -> TempFactory {
    let s = Arc::clone(shared);
    Box::new(move || (s.lock())())
}

impl SegmentBuilder {
    /// A builder writing to `out`, spilling sort runs (and an EP file's
    /// records) via `temp`, with roughly `run_mem_bytes` of in-memory
    /// sort buffer per phase.
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
            n_docs: 0,
            spill: Spill::Mem(Vec::new()),
            rec_ends: Vec::new(),
        }
    }

    /// Adds one document: its opaque refinement record (an EP file's;
    /// an RP file holds none, and is handed an empty one) and its label
    /// path + fine gaps. Returns the local document id.
    pub fn add_doc(&mut self, record: &[u8], path: Vec<u32>, gaps: Vec<u32>) -> Result<u32> {
        debug_assert_eq!(path.len(), gaps.len());
        let doc = self.n_docs;
        if self.kind == SEG_KIND_EP {
            if let Spill::Mem(buf) = &self.spill {
                if buf.len() + record.len() > self.run_budget {
                    let mut w = SeqWriter::new((self.temp.lock())()?, 0);
                    w.push(buf)?;
                    self.spill = Spill::Store(w);
                }
            }
            let end = match &mut self.spill {
                Spill::Mem(buf) => {
                    buf.extend_from_slice(record);
                    buf.len() as u64
                }
                Spill::Store(w) => {
                    w.push(record)?;
                    w.pos()
                }
            };
            self.rec_ends.push(end);
        } else {
            assert!(record.is_empty(), "an RP segment holds no records");
        }
        self.n_docs += 1;
        self.sorter.push(PathEntry { path, gaps, doc })?;
        Ok(doc)
    }

    /// Number of documents added so far.
    pub fn doc_count(&self) -> u32 {
        self.n_docs
    }

    /// Copies the spilled records into the record section in `order`,
    /// each behind its length, then writes the record index. Returns
    /// where the index starts.
    fn write_records(&mut self, order: &[u32]) -> Result<u64> {
        let n = self.n_docs as usize;
        let mut starts = vec![u64::MAX; n];
        let (mem, store) = match std::mem::replace(&mut self.spill, Spill::Mem(Vec::new())) {
            Spill::Mem(buf) => (buf, None),
            Spill::Store(w) => (Vec::new(), Some(w.finish()?.0)),
        };
        let mut rec = Vec::new();
        for &doc in order {
            let slot = &mut starts[doc as usize];
            assert_eq!(*slot, u64::MAX, "the record order names a document twice");
            *slot = self.w.pos() - SEG_HEADER_LEN;
            let from = match doc {
                0 => 0,
                d => self.rec_ends[d as usize - 1],
            };
            let to = self.rec_ends[doc as usize];
            let bytes = match &store {
                Some(store) => {
                    rec.resize((to - from) as usize, 0);
                    store.read_at(from, &mut rec)?;
                    &rec[..]
                }
                None => &mem[from as usize..to as usize],
            };
            self.w.push_with(|buf| {
                put_varint(buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            })?;
        }
        assert_eq!(order.len(), n, "the record order names every document");
        let rec_idx_off = self.w.pos();
        let section = rec_idx_off - SEG_HEADER_LEN;
        for o in starts.into_iter().chain([section]) {
            self.w.push(&o.to_le_bytes())?;
        }
        Ok(rec_idx_off)
    }

    /// Merges the runs, labels the trie, writes every section, the
    /// header, and the CRC table, then syncs. An EP file lays its
    /// records out in `record_order`, a permutation of its local
    /// document ids (the tier's RP Docid order); an RP file, which holds
    /// none, takes an empty one. `make_meta` receives the trie
    /// statistics and returns the opaque meta blob. Returns the
    /// statistics and the local document ids in the order of the file's
    /// Docid section.
    pub fn finish(
        mut self,
        record_order: &[u32],
        make_meta: impl FnOnce(&SegTrieStats) -> Vec<u8>,
    ) -> Result<(SegTrieStats, Vec<u32>)> {
        // The record index follows the records; the header offsets
        // come from `Header::lay_out` and the writer must agree with it.
        let rec_idx_off = match self.kind {
            SEG_KIND_EP => self.write_records(record_order)?,
            _ => {
                assert!(record_order.is_empty(), "an RP segment holds no records");
                self.w.pos()
            }
        };
        let mut w = self.w;
        let n_docs = self.n_docs;
        w.pad_to_block();

        // Merge the path runs through the streaming trie.
        let mut tag_sorter = ExternalSorter::new(self.run_budget, fwd_temp(&self.temp));
        let mut trie = StreamTrie::new(|t| tag_sorter.push(t));
        self.sorter
            .drain(|e| trie.insert(&e.path, &e.gaps, e.doc))?;
        let (stats, doc_ends) = trie.finish()?;

        // Tag rows packed into blocks, then their fences (the first key
        // of every block).
        let n_tag = tag_sorter.len();
        let mut tags = RowPacker::new();
        let mut prev_key: Option<(u32, u64)> = None;
        tag_sorter.drain(|t| {
            debug_assert!(
                prev_key.is_none_or(|p| p < (t.sym, t.left)),
                "duplicate tag key"
            );
            prev_key = Some((t.sym, t.left));
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
        Ok((stats, doc_ends.iter().map(|d| d.doc).collect()))
    }
}

// ---------------------------------------------------------------------------
// Segment reader
// ---------------------------------------------------------------------------

/// The length a record's varint prefix at the start of `head` gives,
/// and the prefix's own bytes, if prefix and record fit in the `room`
/// bytes left of the record section.
fn length_prefix(head: &[u8], room: u64) -> Option<(u64, usize)> {
    let mut rest = head;
    let len = take_varint(&mut rest)?;
    let prefix = head.len() - rest.len();
    let left = room.checked_sub(prefix as u64)?;
    (len <= left).then_some((len, prefix))
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
    /// Per-document records found to tile their section.
    pub records: u64,
}

/// Where the bytes of one segment file are ([`SegmentReader::layout`]):
/// the sections' lengths, and the rows and blocks of the two packed
/// sections. What is left of `file_bytes` is the frame and the zeros
/// that align the two row sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    /// Per-document refinement records (0 in an RP file).
    pub record_bytes: u64,
    /// Their `n_docs + 1` offsets (0 in an RP file).
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
/// reads through its tier's [`BlockCache`], never touching the buffer
/// pool. Both fence arrays are resident, so a lookup is one in-memory
/// binary search, one binary search over the restarts of one cached
/// block and a decode of at most 16 rows.
pub struct SegmentReader {
    file: BlockFile,
    hdr: Header,
    tags: Section<TagEntry>,
    docs: Section<DocEnd>,
    /// The record index's last entry, read at open: the length of the
    /// record data it claims (0 in an RP file).
    records_end: u64,
}

impl SegmentReader {
    /// Opens a segment on its own, in a cache of one file's share of a
    /// tier's ([`SegmentReader::open_in`]).
    pub fn open(store: Box<dyn RawStore>, stats: Arc<IoStats>) -> Result<SegmentReader> {
        Self::open_in(store, stats, &Arc::new(BlockCache::new(CACHE_BLOCKS)))
    }

    /// Opens a segment: validates the header against the file and
    /// loads both fence arrays (16 bytes of memory per 4 KiB block of
    /// rows). Its blocks are cached in `cache`, beside those of the
    /// other files that joined it, and its block reads are recorded
    /// into `stats`.
    pub fn open_in(
        store: Box<dyn RawStore>,
        stats: Arc<IoStats>,
        cache: &Arc<BlockCache>,
    ) -> Result<SegmentReader> {
        let hdr = Frame::open(&*store, &SEG_FORMAT, Header::from_frame)?;
        let tags = Section::open(&*store, hdr.tag_off, hdr.tag_fence_off, hdr.tag_blocks)?;
        let docs = Section::open(&*store, hdr.doc_off, hdr.doc_fence_off, hdr.doc_blocks)?;
        let mut records_end = [0u8; 8];
        if hdr.kind == SEG_KIND_EP {
            store.read_at(
                hdr.rec_idx_off + u64::from(hdr.n_docs) * 8,
                &mut records_end,
            )?;
        }
        Ok(SegmentReader {
            file: BlockFile::new(store, stats, hdr.file_len, cache),
            hdr,
            tags,
            docs,
            records_end: u64::from_le_bytes(records_end),
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
            record_index_bytes: rec_idx_len(h.kind, h.n_docs),
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

    /// How many tag-section blocks a scan of every row of `sym` enters,
    /// from the resident fences alone: [`SegmentReader::scan_tag_range`]
    /// over `(0, u64::MAX]` reads exactly these.
    pub fn tag_blocks(&self, sym: u32) -> u64 {
        let fences = &self.tags.fences;
        let first = fences.partition_point(|&k| k <= (sym, 0)).saturating_sub(1);
        let end = fences.partition_point(|&(s, _)| s <= sym);
        end.saturating_sub(first) as u64
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

    /// Bytes of record data, from the header; the index's last entry
    /// must say the same.
    fn records_len(&self) -> u64 {
        self.hdr.rec_idx_off - self.hdr.rec_data_off
    }

    /// Reads the refinement record of local document `doc` (from an EP
    /// file: an RP file holds none): one record-index entry, then the
    /// record behind its length prefix, each block touched once (but
    /// for a prefix that a block boundary cuts). A start or a length
    /// that leaves the record section is `Corrupt`; two documents that
    /// share a record, or a record that overlaps another or leaves a gap
    /// before the next, are [`SegmentReader::verify`]'s to find.
    pub fn record(&self, doc: u32) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.record_into(doc, &mut out).map(|()| out)
    }

    /// [`SegmentReader::record`] written into `out`, whose contents it
    /// replaces: a reader that reuses one buffer allocates nothing per
    /// record once it has grown to the widest.
    pub fn record_into(&self, doc: u32, out: &mut Vec<u8>) -> Result<()> {
        if self.hdr.kind != SEG_KIND_EP {
            return Err(corrupt(format!(
                "record {doc} asked of an RP segment, which holds no records"
            )));
        }
        if doc >= self.hdr.n_docs {
            return Err(corrupt(format!(
                "record {doc} out of range (segment holds {})",
                self.hdr.n_docs
            )));
        }
        let section = self.records_len();
        if self.records_end != section {
            return Err(corrupt(format!(
                "record index ends at {}, the record section holds {section} bytes",
                self.records_end
            )));
        }
        let mut entry = [0u8; 8];
        self.file
            .read_into(self.hdr.rec_idx_off + u64::from(doc) * 8, &mut entry)?;
        let start = u64::from_le_bytes(entry);
        let room = section.checked_sub(start).filter(|&r| r > 0);
        let room = room.ok_or_else(|| {
            corrupt(format!(
                "record {doc} starts at {start}, past the record section's {section} bytes"
            ))
        })?;
        let at = self.hdr.rec_data_off + start;
        let block = self.file.block(at / SEG_BLOCK as u64)?;
        let here = &block[((at % SEG_BLOCK as u64) as usize).min(block.len())..];
        let (len, prefix, body) = match length_prefix(here, room) {
            Some((len, prefix)) => (len, prefix, &here[prefix..]),
            // A prefix the block's end cuts: read it across both blocks.
            None => {
                let mut head = [0u8; 10];
                let head = &mut head[..room.min(10) as usize];
                self.file.read_into(at, head)?;
                let (len, prefix) = length_prefix(head, room).ok_or_else(|| {
                    corrupt(format!(
                        "record {doc} at {start} runs past the record section's {section} bytes"
                    ))
                })?;
                (len, prefix, &[][..])
            }
        };
        out.clear();
        let have = body.len().min(len as usize);
        out.extend_from_slice(&body[..have]);
        out.resize(len as usize, 0);
        let next = at + (prefix + have) as u64;
        self.file.read_into(next, &mut out[have..])?;
        Ok(())
    }

    /// The opaque meta blob.
    pub fn meta(&self) -> Result<Vec<u8>> {
        let mut meta = vec![0u8; self.hdr.meta_len as usize];
        self.file.read_into(self.hdr.meta_off, &mut meta)?;
        Ok(meta)
    }

    /// That the records starting at `starts` (sorted) tile the record
    /// section and that it is `end` bytes long: each record's length
    /// prefix read straight from the store, and each record starting
    /// where the one before it ends.
    fn check_tiling(&self, starts: &[u64], end: u64) -> Result<()> {
        let section = self.records_len();
        if end != section {
            return Err(corrupt(format!(
                "record index ends at {end}, the record section holds {section} bytes"
            )));
        }
        let mut at = 0u64;
        for (i, &start) in starts.iter().enumerate() {
            if start != at {
                let what = match starts.get(i.wrapping_sub(1)) {
                    Some(&prev) if prev == start => "two records start",
                    _ if start < at => "a record overlaps the one before it",
                    _ => "a gap in the record section ends",
                };
                return Err(corrupt(format!("{what} at {start}")));
            }
            let mut head = [0u8; 10];
            let head = &mut head[..(section - at).min(10) as usize];
            self.file.store.read_at(self.hdr.rec_data_off + at, head)?;
            let (len, prefix) = length_prefix(head, section - at).ok_or_else(|| {
                corrupt(format!(
                    "the record at {at} runs past the record section's {section} bytes"
                ))
            })?;
            at += prefix as u64 + len;
        }
        if at != section {
            return Err(corrupt(format!(
                "a gap in the record section starts at {at}"
            )));
        }
        Ok(())
    }

    /// Full integrity check: every content block against the CRC
    /// table, the records' tiling of their section, strict sort order of both
    /// entry sections, each group's first key against the resident
    /// fence, and every pad byte zero (the header, and with it the
    /// block alignment of both sections, was validated at open). Reads
    /// bypass the cache (sequential, one pass).
    pub fn verify(&self) -> Result<SegmentCheck> {
        let mut check = SegmentCheck::default();
        let store = &*self.file.store;
        check.blocks = check_crc_table(store, self.hdr.crc_off)?;
        // Record index (an EP file's): the records tile their section.
        let mut idx_bytes = vec![0u8; rec_idx_len(self.hdr.kind, self.hdr.n_docs) as usize];
        store.read_at(self.hdr.rec_idx_off, &mut idx_bytes)?;
        let entries: Vec<u64> = idx_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if let Some((&end, starts)) = entries.split_last() {
            let mut starts = starts.to_vec();
            starts.sort_unstable();
            self.check_tiling(&starts, end)?;
            check.records = starts.len() as u64;
        }
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
    use super::super::blockfile::tests::{patch_header, reseal, FileKind};
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

    /// Reference trie, used as the oracle: built whole in memory, then
    /// labeled exactly by one DFS numbering once every path is in.
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

    /// An EP segment over `paths`, its records [`record_of`] in the
    /// order of its own Docid section (a tier lays them out in its RP
    /// file's).
    fn build_segment(
        paths: &[(Vec<u32>, Vec<u32>)],
        run_mem: usize,
    ) -> (Arc<MemSegEnv>, SegTrieStats) {
        build_segment_as(paths, run_mem, SEG_KIND_EP, 0)
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
            let record = if kind == SEG_KIND_EP {
                record_of(i)
            } else {
                Vec::new()
            };
            b.add_doc(&record, path.clone(), gaps.clone()).unwrap();
        }
        let order: Vec<u32> = match kind {
            SEG_KIND_EP => oracle_rows(paths).1.iter().map(|e| e.doc).collect(),
            _ => Vec::new(),
        };
        let (stats, doc_order) = b
            .finish(&order, |st| format!("meta:{}", st.nodes).into_bytes())
            .unwrap();
        assert!(order.is_empty() || doc_order == order);
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
    fn block_starts_and_restarts<R: FixedRow>(
        rows: &[R],
        file: &[u8],
        sec: &Section<R>,
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
        // The statistics, from the oracle's rows: a leaf's range is its
        // own left alone, and every sequence through a leaf ends there.
        let leaves: Vec<u64> = exp_tags
            .iter()
            .filter(|t| t.right == t.left)
            .map(|t| t.left)
            .collect();
        let sharing = leaves
            .iter()
            .map(|&l| exp_ends.iter().filter(|e| e.left == l).count() as u64)
            .max();
        let want_stats = SegTrieStats {
            nodes: exp_tags.len() as u64,
            leaves: leaves.len() as u64,
            sequences: paths.len() as u64,
            max_path_sharing: sharing.unwrap_or(0),
            total_path_len: paths.iter().map(|(p, _)| p.len() as u64).sum(),
        };
        assert_eq!(stats, want_stats);
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
        // The in-memory labeler is the same trie: the segment's rows,
        // from the paths handed over in reverse.
        let docs = paths.iter().zip(0..paths.len() as u32).rev();
        let (tags, ends, mem_stats) = label_paths(docs.map(|((p, g), d)| (&p[..], &g[..], d)));
        assert_eq!((tags, ends), (exp_tags, exp_ends));
        assert_eq!(mem_stats, want_stats);
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

    /// An RP file has no record section and no record index: its tag
    /// blocks start at the first block, it answers the same scans as the
    /// EP file of the same paths, and a record asked of it is an error.
    #[test]
    fn an_rp_segment_holds_no_records() {
        let paths = sample_paths(300, 8);
        let (rp_env, _) = build_segment_as(&paths, 1 << 20, SEG_KIND_RP, 0);
        let (ep_env, _) = build_segment(&paths, 1 << 20);
        let (rp, ep) = (open_reader(&rp_env), open_reader(&ep_env));
        let (rl, el) = (rp.layout(), ep.layout());
        assert_eq!((rl.record_bytes, rl.record_index_bytes), (0, 0));
        assert_eq!(el.record_index_bytes, (300 + 1) * 8);
        assert_eq!(rp.hdr.tag_off, SEG_BLOCK as u64);
        assert_eq!((rl.tag_bytes, rl.doc_bytes), (el.tag_bytes, el.doc_bytes));
        let (tags, ends) = oracle_rows(&paths);
        check_scans(&rp, &tags, &ends, &[0, 3, 5], &[0, 40, u64::MAX]);
        let err = rp.record(0).unwrap_err().to_string();
        assert!(err.contains("holds no records"), "{err}");
        assert_eq!(rp.verify().unwrap().records, 0);
        assert_eq!(ep.verify().unwrap().records, 300);
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

    /// A hostile record section, damaged one way at a time in an
    /// otherwise valid file (CRC table redone, so `verify` gets past the
    /// CRCs): every damage is `Corrupt` from `verify`, and from `record`
    /// of the document it hits whenever that record leaves the section
    /// or the index's last entry disagrees with the section's length. A
    /// record two documents share, or one that overlaps its neighbour or
    /// leaves a gap before it, stays whole bytes to `record` — it reads
    /// one entry and one record, and only the whole index tells — so it
    /// is `verify`'s alone. No read panics.
    #[test]
    fn hostile_record_sections_are_corrupt_never_a_panic() {
        let paths = sample_paths(120, 5);
        let (env, _) = build_segment(&paths, 1 << 20);
        let good = env.store(".t.seg").unwrap().snapshot();
        let hdr = try_open(&good).unwrap().hdr;
        let (idx, data, n) = (hdr.rec_idx_off as usize, hdr.rec_data_off as usize, 120);
        let section = hdr.rec_idx_off - hdr.rec_data_off;
        let entry = |d: usize| u64::from_le_bytes(good[idx + d * 8..][..8].try_into().unwrap());
        // Neighbours in the section: `p`, then `q`; and the last record.
        let mut by_offset: Vec<usize> = (0..n).collect();
        by_offset.sort_by_key(|&d| entry(d));
        let (p, q, last) = (by_offset[n / 2], by_offset[n / 2 + 1], by_offset[n - 1]);
        let prefix = |d: usize| data + entry(d) as usize;
        assert!(
            good[prefix(p)] < 0x40 && good[prefix(last)] < 0x40,
            "short records"
        );
        // Where document `d`'s entry is, and its new value.
        let set = |d: usize, v: u64| (idx + d * 8, v.to_le_bytes().to_vec());
        let [p_len, last_len] = [p, last].map(|d| good[prefix(d)]);
        // (what, the bytes written where, the document `record` reads,
        // `record` refuses it, `verify`'s complaint)
        let cases = [
            (
                "a duplicated start offset",
                set(q, entry(p)),
                q,
                false,
                "two records start at",
            ),
            (
                "a gap between records",
                (prefix(p), vec![p_len - 1]),
                p,
                false,
                "a gap in the record section ends at",
            ),
            (
                "overlapping records",
                (prefix(p), vec![p_len + 1]),
                p,
                false,
                "a record overlaps the one before it at",
            ),
            (
                "a length prefix running past the section",
                (prefix(last), vec![last_len + 0x40]),
                last,
                true,
                "runs past the record section",
            ),
            (
                "an offset at the section end",
                set(p, section),
                p,
                true,
                "a gap in the record section ends at",
            ),
            (
                "an offset past the section end",
                set(p, section + 1000),
                p,
                true,
                "a gap in the record section ends at",
            ),
            (
                "a final entry different from the section length",
                set(n, section - 1),
                p,
                true,
                "record index ends at",
            ),
        ];
        for (what, (at, new), victim, refused, complaint) in cases {
            let mut bytes = good.clone();
            bytes[at..at + new.len()].copy_from_slice(&new);
            let r = try_open(&reseal(&bytes)).unwrap();
            for d in 0..n as u32 {
                let _ = r.record(d);
            }
            match r.record(victim as u32) {
                Err(StorageError::Corrupt { .. }) if refused => {}
                Ok(_) if !refused => {}
                got => panic!("{what}: record {victim} read {got:?}"),
            }
            match r.verify() {
                Err(e @ StorageError::Corrupt { .. }) => {
                    assert!(e.to_string().contains(complaint), "{what}: {e}")
                }
                got => panic!("{what}: verify said {got:?}"),
            }
        }
    }

    fn try_open(bytes: &[u8]) -> Result<SegmentReader> {
        let store = MemStore::new();
        store.write_at(0, bytes).unwrap();
        SegmentReader::open(Box::new(store), Arc::new(IoStats::default()))
    }

    #[test]
    fn open_rejects_bad_magic_truncation_and_older_versions() {
        let paths = sample_paths(20, 9);
        let (env, _) = build_segment(&paths, 1 << 20);
        let good = env.store(".t.seg").unwrap().snapshot();
        try_open(&good).unwrap();
        let mut bad = good.clone();
        bad[..8].copy_from_slice(b"NOTASEG!");
        assert!(try_open(&bad).is_err());
        assert!(
            try_open(&good[..good.len() - 10]).is_err(),
            "length mismatch must be refused"
        );
        for old in [2, 3, 4] {
            let err = match try_open(&patch_header(&good, 8, 4, |_| old)) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("a version-{old} segment must be refused"),
            };
            let want = format!(
                "segment format version {old} is not supported (this build reads \
                 version 5); re-index the source documents"
            );
            assert!(err.ends_with(&want), "unhelpful refusal: {err}");
        }
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
        b.finish(&[], |_| b"m".to_vec()).unwrap();
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
