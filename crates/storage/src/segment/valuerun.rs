//! Value runs: the value index of one segment tier — every
//! `(opclass key, posting)` of exactly the tier's documents, sorted and
//! packed, in a file next to the tier's RP and EP segments. Format
//! version 1, on the frame, CRC table, block cache and sections of
//! [`super::blockfile`]:
//!
//! ```text
//! +---------+------------+------------+------------+------------+----------+----------+-----------+
//! | block 0 | num blocks | str blocks | num fences | str fences | num tags | str tags | CRC table |
//! +---------+------------+------------+------------+------------+----------+----------+-----------+
//! ```
//!
//! * **block 0** — the 128-byte frame (magic `PRIXVXR\0`, kind
//!   [`SEG_KIND_VX`]; eleven words: per section the postings, blocks,
//!   fence bytes and tags, then the derived offsets and the file
//!   length), zero-padded to one block. `VxHeader::lay_out` derives
//!   every offset from the counts; a header that disagrees is refused
//!   at open.
//! * **num / str blocks** — one section per opclass. A block is
//!   `n: u16`, then `n` entries `klen: u16 | key | doc: u32 | post: u32`
//!   in ascending `(key, doc, post)` order, then zeros. An entry never
//!   spans a block. Keys are opaque here but for their 4-byte big-endian
//!   tag prefix; the core layer writes the bytes its B⁺-trees use.
//! * **fences** — `klen | key` of every block's first entry, resident
//!   after open: one binary search picks the block a scan starts in.
//! * **tags** — the sorted distinct tag prefixes of each section,
//!   resident after open: a scan for a tag the run does not hold returns
//!   before touching a block. The tag directory is the one thing a run
//!   has that the block-file layer does not know about.
//! * **CRC table** — as in a segment.

use std::ops::Bound;
use std::sync::Arc;

use super::blockfile::{
    check_crc_table, corrupt, seal, BlockFile, Format, Frame, KeyedEntries, Section, SeqWriter,
    MIN_KEY_LEN, POSTING_LEN, SEG_BLOCK, SEG_HEADER_LEN,
};
use super::sort::{RunBuf, SortItem};
use crate::error::Result;
use crate::stats::IoStats;
use crate::store::RawStore;

/// `kind` byte of a value run (its header and its manifest row).
pub const SEG_KIND_VX: u8 = 2;
/// Value-run format version.
pub const VX_VERSION: u32 = 1;
/// Key length of the numeric section: tag(4) ++ encoded value(8).
const VX_NUM_KEY_LEN: usize = 12;
/// Longest key a run stores: tag(4) ++ 256 value bytes.
pub const VX_MAX_KEY_LEN: usize = 260;
/// Bytes of an entry besides its key: klen(2) doc(4) post(4).
const VX_ENTRY_OVERHEAD: usize = 2 + POSTING_LEN;
/// The most entries one block holds (minimal keys).
const VX_MAX_PER_BLOCK: u64 = ((SEG_BLOCK - 2) / (MIN_KEY_LEN + VX_ENTRY_OVERHEAD)) as u64;

/// The frame of a value run: eleven words, one kind.
const VX_FORMAT: Format = Format {
    what: "value-run",
    magic: *b"PRIXVXR\0",
    version: VX_VERSION,
    kind: Some(SEG_KIND_VX),
    words: 11,
};

/// The two sorted sections of a value run, one per opclass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VxSection {
    /// Order-preserving numeric keys, all 12 bytes long.
    Num = 0,
    /// Raw string keys.
    Str = 1,
}

impl VxSection {
    /// Whether a key of `len` bytes can belong to this section.
    pub fn key_len_ok(self, len: usize) -> bool {
        match self {
            VxSection::Num => len == VX_NUM_KEY_LEN,
            VxSection::Str => (MIN_KEY_LEN..=VX_MAX_KEY_LEN).contains(&len),
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

/// Big-endian tag prefix of a key (or of a bound shorter than one,
/// zero-extended: it then sorts before every key of that tag).
fn vx_tag(key: &[u8]) -> u32 {
    let mut t = [0u8; 4];
    let n = key.len().min(4);
    t[..n].copy_from_slice(&key[..n]);
    u32::from_be_bytes(t)
}

/// One section's entries passing by in the order a run stores them —
/// into the builder, or out of `verify` — held to the rules the
/// reader's searches rely on: a key of the section's shape, a document
/// inside the run's range, strict `(key, doc, post)` order. Keeps what
/// the entries add up to.
struct VxStream {
    section: VxSection,
    /// The run's documents.
    docs: std::ops::Range<u64>,
    last_key: Vec<u8>,
    last_at: Option<(u32, u32)>,
    /// The distinct tag prefixes met, ascending.
    tags: Vec<u32>,
    postings: u64,
}

impl VxStream {
    fn new(section: VxSection, doc_base: u32, n_docs: u32) -> Self {
        VxStream {
            section,
            docs: u64::from(doc_base)..u64::from(doc_base) + u64::from(n_docs),
            last_key: Vec::new(),
            last_at: None,
            tags: Vec::new(),
            postings: 0,
        }
    }

    /// Admits the next entry, or says what is wrong with it.
    fn admit(&mut self, key: &[u8], doc: u32, post: u32) -> std::result::Result<(), String> {
        if !self.section.key_len_ok(key.len()) {
            return Err(format!("has key length {}", key.len()));
        }
        if !self.docs.contains(&u64::from(doc)) {
            return Err(format!("names document {doc} outside {:?}", self.docs));
        }
        let at = (doc, post);
        if self
            .last_at
            .is_some_and(|last| (self.last_key.as_slice(), last) >= (key, at))
        {
            return Err("out of order".into());
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.last_at = Some(at);
        let tag = vx_tag(key);
        if self.tags.last() != Some(&tag) {
            self.tags.push(tag);
        }
        self.postings += 1;
        Ok(())
    }
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
    /// The run geometry, in one place (the rule of a segment's
    /// `Header::lay_out`): data blocks from block 1, both fence
    /// sections, both tag directories, the CRC table. `None` when the
    /// sizes overflow.
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
        let file_len = crc_off.checked_add(crc_off.div_ceil(block).checked_mul(4)?)?;
        Some(VxHeader {
            doc_base,
            n_docs,
            secs,
            fence_off,
            crc_off,
            file_len,
        })
    }

    /// The header as a frame: which word is which field.
    fn frame(&self) -> Frame {
        let mut words = [0u64; 12];
        let stored = self
            .secs
            .iter()
            .flat_map(|s| [s.postings, s.blocks, s.fence_len, s.tags])
            .chain([self.fence_off, self.crc_off, self.file_len]);
        for (word, v) in words.iter_mut().zip(stored) {
            *word = v;
        }
        Frame {
            kind: SEG_KIND_VX,
            doc_base: self.doc_base,
            n_docs: self.n_docs,
            words,
        }
    }

    /// The header a frame stores, if the frame is exactly what
    /// [`VxHeader::lay_out`] derives from the counts it stores, and the
    /// counts are ones a builder can produce (every block holds at
    /// least one entry and at most [`VX_MAX_PER_BLOCK`], every fence is
    /// one key, a section with postings has a tag).
    fn from_frame(f: &Frame) -> Option<VxHeader> {
        let sec = |i: usize| VxGeom {
            postings: f.words[i],
            blocks: f.words[i + 1],
            fence_len: f.words[i + 2],
            tags: f.words[i + 3],
        };
        let plausible = |s: &VxGeom| {
            let fence = |key: usize| s.blocks.checked_mul((2 + key) as u64);
            s.blocks <= s.postings
                && Some(s.postings) <= s.blocks.checked_mul(VX_MAX_PER_BLOCK)
                && fence(MIN_KEY_LEN) <= Some(s.fence_len)
                && Some(s.fence_len) <= fence(VX_MAX_KEY_LEN)
                && s.tags <= s.postings
                && (s.tags == 0) == (s.postings == 0)
        };
        let hdr = VxHeader::lay_out(f.doc_base, f.n_docs, [sec(0), sec(4)])?;
        (hdr.frame() == *f && hdr.secs.iter().all(plausible)).then_some(hdr)
    }
}

/// One section while a [`ValueRunBuilder`] fills it.
struct VxSecBuild {
    entries: VxStream,
    blocks: u64,
    fences: Vec<u8>,
}

/// Writes one value run. Entries must arrive in the order the run
/// stores them — the numeric section, then the string section, each in
/// ascending `(key, doc, post)` order — so blocks stream straight to
/// the output and nothing but the fences and the tag directories (what
/// a reader keeps resident anyway) stays in memory.
pub struct ValueRunBuilder {
    /// The stream of finished blocks, from block 1.
    w: SeqWriter,
    doc_base: u32,
    n_docs: u32,
    /// The block being filled; empty between blocks.
    block: Vec<u8>,
    in_block: u16,
    section: VxSection,
    secs: [VxSecBuild; 2],
}

impl ValueRunBuilder {
    /// A builder writing the run of documents
    /// `[doc_base, doc_base + n_docs)` to `out`.
    pub fn new(out: Box<dyn RawStore>, doc_base: u32, n_docs: u32) -> Self {
        ValueRunBuilder {
            w: SeqWriter::new(out, SEG_BLOCK as u64),
            doc_base,
            n_docs,
            block: Vec::with_capacity(SEG_BLOCK),
            in_block: 0,
            section: VxSection::Num,
            secs: [VxSection::Num, VxSection::Str].map(|section| VxSecBuild {
                entries: VxStream::new(section, doc_base, n_docs),
                blocks: 0,
                fences: Vec::new(),
            }),
        }
    }

    /// Appends one posting. An entry out of order, a key of the wrong
    /// shape or a document outside the run's range is refused.
    pub fn push(&mut self, section: VxSection, key: &[u8], doc: u32, post: u32) -> Result<()> {
        if section < self.section {
            return Err(corrupt("value-run sections out of order".into()));
        }
        if section != self.section {
            self.close_block()?;
            self.section = section;
        }
        let admitted = self.secs[section as usize].entries.admit(key, doc, post);
        admitted.map_err(|why| corrupt(format!("value-run posting {why}")))?;
        if self.block.len() + key.len() + VX_ENTRY_OVERHEAD > SEG_BLOCK {
            self.close_block()?;
        }
        let sec = &mut self.secs[section as usize];
        let klen = (key.len() as u16).to_le_bytes();
        if self.block.is_empty() {
            self.block.extend_from_slice(&[0, 0]);
            sec.blocks += 1;
            sec.fences.extend_from_slice(&klen);
            sec.fences.extend_from_slice(key);
        }
        self.block.extend_from_slice(&klen);
        self.block.extend_from_slice(key);
        self.block.extend_from_slice(&doc.to_le_bytes());
        self.block.extend_from_slice(&post.to_le_bytes());
        self.in_block += 1;
        Ok(())
    }

    /// Stamps the entry count into the block being filled, pads it to
    /// [`SEG_BLOCK`] and hands it to the writer.
    fn close_block(&mut self) -> Result<()> {
        if !self.block.is_empty() {
            self.block[..2].copy_from_slice(&self.in_block.to_le_bytes());
            self.block.resize(SEG_BLOCK, 0);
            self.w.push(&self.block)?;
            self.block.clear();
            self.in_block = 0;
        }
        Ok(())
    }

    /// Writes the last block, the fences, the tag directories, the
    /// header and the CRC table, then syncs.
    pub fn finish(mut self) -> Result<()> {
        self.close_block()?;
        let geom = |s: &VxSecBuild| VxGeom {
            postings: s.entries.postings,
            blocks: s.blocks,
            fence_len: s.fences.len() as u64,
            tags: s.entries.tags.len() as u64,
        };
        let header = VxHeader::lay_out(
            self.doc_base,
            self.n_docs,
            [geom(&self.secs[0]), geom(&self.secs[1])],
        )
        .ok_or_else(|| corrupt("value run too large".into()))?;
        let mut w = self.w;
        assert_eq!(
            header.fence_off,
            w.pos(),
            "value-run writer left its layout"
        );
        for s in &self.secs {
            w.push(&s.fences)?;
        }
        for t in self.secs.iter().flat_map(|s| &s.entries.tags) {
            w.push(&t.to_le_bytes())?;
        }
        let mut block0 = vec![0u8; SEG_BLOCK];
        block0[..SEG_HEADER_LEN as usize].copy_from_slice(&header.frame().encode(&VX_FORMAT));
        seal(w, &block0, header.crc_off, header.file_len)
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
    postings: u64,
    blocks: Section<KeyedEntries>,
    /// Sorted distinct tag prefixes.
    tags: Vec<u32>,
}

impl VxSec {
    /// Parses and checks what `open` read for this section: its fences
    /// ([`KeyedEntries::open`]) and its strictly ascending tags.
    fn parse(
        section: VxSection,
        first_block: u64,
        geom: &VxGeom,
        fence_bytes: &[u8],
        tag_bytes: &[u8],
    ) -> Result<VxSec> {
        let key_ok = |len: usize| section.key_len_ok(len);
        let blocks = KeyedEntries::open(fence_bytes, first_block, geom.blocks, key_ok)?;
        let tags: Vec<u32> = tag_bytes
            .chunks_exact(4)
            .map(|t| u32::from_le_bytes(t.try_into().unwrap()))
            .collect();
        if tags.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("value-run tag directory is not sorted".into()));
        }
        Ok(VxSec {
            section,
            postings: geom.postings,
            blocks,
            tags,
        })
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
/// the same block cache and counters as a segment's reader. Fences and
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
        let hdr = Frame::open(&*store, &VX_FORMAT, VxHeader::from_frame)?;
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
            file: BlockFile::new(store, stats, hdr.file_len),
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
                s.blocks.codec.fence_bytes.len()
                    + std::mem::size_of_val(&s.blocks.fences[..])
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
        sec.blocks.scan(
            &self.file,
            |key| below(lo, key),
            |key| above(hi, key),
            |key, entry| f(key, &entry[entry.len() - POSTING_LEN..]),
        )
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
        let blocks = check_crc_table(store, self.hdr.crc_off)?;
        let mut pad = vec![0u8; SEG_BLOCK - SEG_HEADER_LEN as usize];
        store.read_at(SEG_HEADER_LEN, &mut pad)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(corrupt("value-run header padding is not zero".into()));
        }
        let mut counts = [0u64; 2];
        for (sec, count) in self.secs.iter().zip(&mut counts) {
            *count = self.verify_section(sec)?;
        }
        Ok(VxCheck {
            blocks,
            num_postings: counts[0],
            str_postings: counts[1],
        })
    }

    fn verify_section(&self, sec: &VxSec) -> Result<u64> {
        let name = sec.section.name();
        let mut entries = VxStream::new(sec.section, self.hdr.doc_base, self.hdr.n_docs);
        let store = &*self.file.store;
        sec.blocks.verify(store, name, |n, key, entry| {
            let posting = &entry[entry.len() - POSTING_LEN..];
            let doc = u32::from_le_bytes(posting[..4].try_into().unwrap());
            let post = u32::from_le_bytes(posting[4..].try_into().unwrap());
            let admitted = entries.admit(key, doc, post);
            admitted.map_err(|why| corrupt(format!("{name} entry {n} {why}")))
        })?;
        if entries.tags != sec.tags {
            return Err(corrupt(format!(
                "{name} tag directory disagrees with the keys stored"
            )));
        }
        if entries.postings != sec.postings {
            return Err(corrupt(format!(
                "{name} section holds {} posting(s), header says {}",
                entries.postings, sec.postings
            )));
        }
        Ok(entries.postings)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::blockfile::tests::{patch_header, FileKind};
    use super::super::structural::tests::lcg;
    use super::super::structural::SEG_KIND_RP;
    use super::*;
    use crate::crc::crc32;
    use crate::error::StorageError;
    use crate::store::MemStore;

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
    pub(crate) fn sample_entries(n_docs: u32, seed: u64) -> Vec<VxEntry> {
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

    pub(crate) fn build_run(entries: &[VxEntry], doc_base: u32, n_docs: u32) -> MemStore {
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
    pub(crate) fn scan_run(
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
            r.secs.iter().all(|s| s.blocks.fences.len() > 4),
            "several blocks"
        );
        assert!(
            (1..r.secs[1].blocks.fences.len())
                .any(|g| r.secs[1].blocks.fence(g - 1) == r.secs[1].blocks.fence(g)),
            "one key's postings span whole blocks"
        );
        for section in [VxSection::Num, VxSection::Str] {
            let of: Vec<&VxEntry> = entries.iter().filter(|e| e.section == section).collect();
            // Bounds: every fence and its neighbours in key order, keys
            // of absent tags, the shortest and longest possible keys.
            let sec = &r.secs[section as usize].blocks;
            let mut keys: Vec<Vec<u8>> =
                vec![vec![], vec![0, 0, 0, 4], vec![0, 0, 0, 6], vec![0xFF; 12]];
            for g in 0..sec.fences.len() {
                let at = of.partition_point(|e| e.key.as_slice() < sec.fence(g));
                let near = &of[at.saturating_sub(1)..(at + 2).min(of.len())];
                keys.extend(near.iter().map(|e| e.key.clone()));
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
        let sec = &r.secs[0].blocks;
        let of: Vec<&VxEntry> = entries
            .iter()
            .filter(|e| e.section == VxSection::Num)
            .collect();
        let key = of
            .iter()
            .map(|e| &e.key)
            .find(|k| {
                let g = (0..sec.fences.len())
                    .find(|&g| sec.fence(g) >= k.as_slice())
                    .unwrap_or(sec.fences.len());
                // Not a fence, and the block after starts past it.
                g < sec.fences.len() && sec.fence(g) > k.as_slice()
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
        let sec = &r.secs[1].blocks;
        let (lo, hi) = (sec.fence(2).to_vec(), sec.fence(5).to_vec());
        let lo = {
            // Just past fence 2's key: the scan starts inside block 2 or
            // a later block with the same fence.
            let mut k = lo;
            k.push(0);
            k
        };
        let start = (0..sec.fences.len())
            .take_while(|&g| sec.fence(g) < lo.as_slice())
            .count()
            - 1;
        let inside = (0..sec.fences.len())
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
        let stats = Arc::new(IoStats::default());
        let hdr = open_run(&MemStore::from_bytes(good.clone()), &stats)
            .unwrap()
            .hdr;
        let fences = hdr.fence_off as usize;
        let tags = fences + (hdr.secs[0].fence_len + hdr.secs[1].fence_len) as usize;
        type Damage = fn(&mut [u8], usize, usize);
        let damage: [(&str, Damage); 4] = [
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

    /// The value run under [`FileKind`]'s hostile-bytes loop: both
    /// sections' full scans.
    pub(crate) fn hostile_kind() -> FileKind {
        fn read_all(bytes: Vec<u8>) -> Option<String> {
            let stats = Arc::new(IoStats::default());
            let r = open_run(&MemStore::from_bytes(bytes), &stats).ok()?;
            let verified = r.verify().is_ok();
            let [num, strs] = [VxSection::Num, VxSection::Str]
                .map(|section| scan_run(&r, section, Bound::Unbounded, Bound::Unbounded));
            if !verified {
                return None;
            }
            Some(format!("{:?}", [num.ok()?, strs.ok()?].concat()))
        }
        let entries = sample_entries(200, 43);
        let good = build_run(&entries, 100, 200).snapshot();
        let stats = Arc::new(IoStats::default());
        FileKind {
            name: "hostile_value_run",
            resident: open_run(&MemStore::from_bytes(good.clone()), &stats)
                .unwrap()
                .hdr
                .fence_off,
            good,
            oracle: format!("{entries:?}"),
            read_all,
            prefixes: false,
        }
    }
}
