//! The block-file layer under both immutable formats: what a
//! structural segment ([`super::structural`]) and a value run
//! ([`super::valuerun`]) have in common, written once.
//!
//! * **The frame** ([`Frame`]) — the first 128 bytes of either file:
//!
//!   ```text
//!   magic[8] | version u32 | kind u8 | pad[3] | doc_base u32 | n_docs u32
//!            | twelve u64 words @24..120 | CRC-32 of bytes 0..120 | pad[4]
//!   ```
//!
//!   A format names its words (counts, then the offsets derived from
//!   them, the file length last) and keeps the arithmetic that derives
//!   the offsets; the frame checks magic, version, CRC and that the
//!   file is as long as its header says.
//! * **The sequential writer** ([`SeqWriter`]) — every builder, and a
//!   sort's spill, appends through one 256 KiB buffer.
//! * **The CRC table** ([`seal`], [`check_crc_table`]) — one CRC-32 per
//!   [`SEG_BLOCK`] of everything before it, the frame included, so
//!   `fsck` can verify a file without trusting any of it.
//! * **The block cache** ([`BlockCache`], [`BlockFile`]) — readers
//!   bypass the buffer pool: direct [`RawStore`] reads through one
//!   [`Lru`] per tier of [`TIER_CACHE_BLOCKS`] blocks, which the tier's
//!   RP, EP and value-run files share. A block's key is the slot its
//!   file took when it joined the cache and the block's index in the
//!   file, so equal indexes of two files never meet. Counted in
//!   [`IoStats`] as `seg_block_reads` / `seg_block_fetches` /
//!   `seg_block_evictions`.
//! * **The section** ([`Section`]) — sorted entries packed into whole
//!   blocks, the first key of every block (its *fence*) resident after
//!   `open`. A lookup is one binary search over the fences and a search
//!   inside one cached block; a range scan enters a following block
//!   only while its fence is still inside the range. Every block of
//!   either format is one layout, rows coded against the row before
//!   them with a restart table ([`walk_rows`], [`RowPacker`]): a search
//!   is a binary search over the restarts of the block and a decode of
//!   at most [`RESTART_EVERY`] rows. What a row is, and how a fence
//!   stays resident, is its [`PackedRow`] (a structural segment's
//!   fixed-width rows, [`FixedRow`]; a value run's prefix-coded
//!   entries).
//! * **Varints** ([`put_varint`], [`take_varint`]) — the LEB128 coding
//!   of packed rows, and of the records and meta blob the core layer
//!   stores in a segment.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::lru::Lru;
use crate::stats::IoStats;
use crate::store::RawStore;
use crate::sync::Mutex;

/// Length of the [`Frame`] in bytes.
pub(crate) const SEG_HEADER_LEN: u64 = 128;
/// Block granularity of sections, the reader cache and the CRC table.
pub(crate) const SEG_BLOCK: usize = 4096;
/// One file's share of a tier's block cache (256 KiB): the cache a
/// reader opened on its own gets.
pub(crate) const CACHE_BLOCKS: usize = 64;
/// Blocks held by one tier's cache, shared by its RP, EP and value-run
/// files (768 KiB): the three files' shares pooled, so that the file a
/// query leans on can hold more than its share.
pub(crate) const TIER_CACHE_BLOCKS: usize = 3 * CACHE_BLOCKS;

pub(crate) fn corrupt(reason: String) -> StorageError {
    StorageError::Corrupt { page: 0, reason }
}

// ---------------------------------------------------------------------------
// The frame
// ---------------------------------------------------------------------------

/// What tells one format's frames from another's.
pub(crate) struct Format {
    /// The format's name in error messages.
    pub what: &'static str,
    /// First 8 bytes of the file.
    pub magic: [u8; 8],
    /// The one version this build reads and writes.
    pub version: u32,
    /// The only `kind` byte a frame may carry, if the format has one.
    pub kind: Option<u8>,
    /// How many of the twelve words the format uses; the last of them
    /// is the file length.
    pub words: usize,
}

/// The decoded fields of a frame. What the words mean is the format's
/// business.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub doc_base: u32,
    pub n_docs: u32,
    pub words: [u64; 12],
}

impl Frame {
    pub(crate) fn encode(&self, fmt: &Format) -> [u8; SEG_HEADER_LEN as usize] {
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        h[0..8].copy_from_slice(&fmt.magic);
        h[8..12].copy_from_slice(&fmt.version.to_le_bytes());
        h[12] = self.kind;
        h[16..20].copy_from_slice(&self.doc_base.to_le_bytes());
        h[20..24].copy_from_slice(&self.n_docs.to_le_bytes());
        for (i, w) in self.words.iter().enumerate() {
            h[24 + i * 8..32 + i * 8].copy_from_slice(&w.to_le_bytes());
        }
        let crc = crc32(&h[..120]);
        h[120..124].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Reads the frame of `store` and validates it: long enough, magic,
    /// version (and kind), CRC, then `parse` — the format's own check,
    /// `None` when the stored offsets are not what its arithmetic
    /// derives from the stored counts — and last the file length, so
    /// every section the header places lies inside the file.
    pub(crate) fn open<H>(
        store: &dyn RawStore,
        fmt: &Format,
        parse: impl FnOnce(&Frame) -> Option<H>,
    ) -> Result<H> {
        let what = fmt.what;
        let len = store.len()?;
        if len < SEG_HEADER_LEN {
            return Err(corrupt(format!("{what} file too short ({len} bytes)")));
        }
        let mut h = [0u8; SEG_HEADER_LEN as usize];
        store.read_at(0, &mut h)?;
        if h[0..8] != fmt.magic {
            return Err(corrupt(format!("bad {what} magic")));
        }
        let u32_at = |i: usize| u32::from_le_bytes(h[i..i + 4].try_into().unwrap());
        let (version, kind) = (u32_at(8), h[12]);
        if version != fmt.version || fmt.kind.is_some_and(|k| k != kind) {
            let (found, reads) = match fmt.kind {
                Some(k) => (
                    format!("version {version}, kind {kind},"),
                    format!("version {}, kind {k}", fmt.version),
                ),
                None => (
                    format!("version {version}"),
                    format!("version {}", fmt.version),
                ),
            };
            return Err(corrupt(format!(
                "{what} format {found} is not supported (this build reads {reads}); \
                 re-index the source documents"
            )));
        }
        if crc32(&h[..120]) != u32_at(120) {
            return Err(corrupt(format!("{what} header CRC mismatch")));
        }
        let word = |i: usize| u64::from_le_bytes(h[24 + i * 8..32 + i * 8].try_into().unwrap());
        let frame = Frame {
            kind,
            doc_base: u32_at(16),
            n_docs: u32_at(20),
            words: std::array::from_fn(word),
        };
        let hdr = parse(&frame).ok_or_else(|| {
            corrupt(format!(
                "{what} header geometry is inconsistent with its counts"
            ))
        })?;
        let file_len = frame.words[fmt.words - 1];
        if file_len != len {
            return Err(corrupt(format!(
                "{what} length mismatch: header says {file_len}, file has {len}"
            )));
        }
        Ok(hdr)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Buffered sequential writer: collects [`SeqWriter::CHUNK`] bytes,
/// writes them at its offset, advances.
pub(crate) struct SeqWriter {
    store: Box<dyn RawStore>,
    off: u64,
    buf: Vec<u8>,
}

impl SeqWriter {
    const CHUNK: usize = 256 * 1024;

    pub(crate) fn new(store: Box<dyn RawStore>, off: u64) -> Self {
        SeqWriter {
            store,
            off,
            buf: Vec::with_capacity(Self::CHUNK),
        }
    }

    /// File offset of the next byte pushed.
    pub(crate) fn pos(&self) -> u64 {
        self.off + self.buf.len() as u64
    }

    /// Appends what `fill` adds to the buffer.
    pub(crate) fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        fill(&mut self.buf);
        if self.buf.len() >= Self::CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    pub(crate) fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.push_with(|buf| buf.extend_from_slice(bytes))
    }

    /// Zero-fills up to the next [`SEG_BLOCK`] boundary (a no-op on
    /// one).
    pub(crate) fn pad_to_block(&mut self) {
        let pad = (SEG_BLOCK as u64 - self.pos() % SEG_BLOCK as u64) % SEG_BLOCK as u64;
        self.buf.resize(self.buf.len() + pad as usize, 0);
    }

    pub(crate) fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.store.write_at(self.off, &self.buf)?;
            self.off += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes what is buffered; the store and where the stream ended.
    pub(crate) fn finish(mut self) -> Result<(Box<dyn RawStore>, u64)> {
        self.flush()?;
        Ok((self.store, self.off))
    }
}

/// The CRC table of `store[..crc_off]`: one little-endian CRC-32 per
/// [`SEG_BLOCK`], read 64 blocks at a time (no cache).
fn crc_table(store: &dyn RawStore, crc_off: u64) -> Result<Vec<u8>> {
    let mut table = Vec::with_capacity(crc_off.div_ceil(SEG_BLOCK as u64) as usize * 4);
    let mut chunk = vec![0u8; 64 * SEG_BLOCK];
    let mut pos = 0u64;
    while pos < crc_off {
        let want = (crc_off - pos).min(chunk.len() as u64) as usize;
        store.read_at(pos, &mut chunk[..want])?;
        for block in chunk[..want].chunks(SEG_BLOCK) {
            table.extend_from_slice(&crc32(block).to_le_bytes());
        }
        pos += want as u64;
    }
    Ok(table)
}

/// Finishes an immutable file whose content `w` has streamed up to
/// `crc_off`: writes `head` (the frame) at offset 0, appends the CRC
/// table (one CRC-32 per [`SEG_BLOCK`] of everything before it, the
/// frame included), cuts the file to `file_len` and syncs.
pub(crate) fn seal(w: SeqWriter, head: &[u8], crc_off: u64, file_len: u64) -> Result<()> {
    let (out, end) = w.finish()?;
    assert_eq!(end, crc_off, "the writer left the header's layout");
    out.write_at(0, head)?;
    out.write_at(crc_off, &crc_table(&*out, crc_off)?)?;
    out.set_len(file_len)?;
    out.sync()
}

/// Checks every content block of a [`seal`]ed file against its CRC
/// table. Returns the number of blocks verified.
pub(crate) fn check_crc_table(store: &dyn RawStore, crc_off: u64) -> Result<u64> {
    let want = crc_table(store, crc_off)?;
    let mut stored = vec![0u8; want.len()];
    store.read_at(crc_off, &mut stored)?;
    match want
        .chunks(4)
        .zip(stored.chunks(4))
        .position(|(w, s)| w != s)
    {
        Some(b) => Err(corrupt(format!("segment block {b} CRC mismatch"))),
        None => Ok(want.len() as u64 / 4),
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A cached block's key: the slot its file took when it joined the
/// cache, and its index in the file.
type BlockKey = (u32, u64);

/// One LRU of blocks over the files that join it: a tier's RP, EP and
/// value-run files, or a reader opened on its own. Every file takes the
/// next slot number when it joins, the first half of its blocks' keys.
pub struct BlockCache {
    lru: Mutex<Lru<BlockKey, Arc<Vec<u8>>>>,
    files: AtomicU32,
}

impl BlockCache {
    /// An empty cache of at most `blocks` blocks.
    pub(crate) fn new(blocks: usize) -> Self {
        BlockCache {
            lru: Mutex::new(Lru::new(blocks)),
            files: AtomicU32::new(0),
        }
    }

    /// An empty cache for the three files of one tier: 192 blocks
    /// (768 KiB), three times one file's share.
    pub fn for_tier() -> Arc<BlockCache> {
        Arc::new(BlockCache::new(TIER_CACHE_BLOCKS))
    }

    /// Blocks held now.
    pub fn resident(&self) -> usize {
        self.lru.lock().len()
    }

    /// Drops every cached block of every file: the next read of each is
    /// a fetch.
    pub fn clear(&self) {
        self.lru.lock().clear();
    }
}

/// An immutable file read in [`SEG_BLOCK`] units through the
/// [`BlockCache`] it joined, never touching the buffer pool. Every
/// block asked for is one `seg_block_read` in `stats`, every miss one
/// `seg_block_fetch` and every block a miss pushes out of the cache one
/// `seg_block_eviction`: the one place both readers count their I/O.
pub(crate) struct BlockFile {
    pub store: Box<dyn RawStore>,
    stats: Arc<IoStats>,
    len: u64,
    cache: Arc<BlockCache>,
    /// This file's part of every key it caches under.
    slot: u32,
}

impl BlockFile {
    pub(crate) fn new(
        store: Box<dyn RawStore>,
        stats: Arc<IoStats>,
        len: u64,
        cache: &Arc<BlockCache>,
    ) -> Self {
        BlockFile {
            store,
            stats,
            len,
            cache: Arc::clone(cache),
            slot: cache.files.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Copies `dst.len()` bytes at `off` out of the block cache,
    /// counting one logical segment read per block touched and one
    /// fetch per miss.
    pub(crate) fn read_into(&self, mut off: u64, mut dst: &mut [u8]) -> Result<()> {
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

    pub(crate) fn block(&self, idx: u64) -> Result<Arc<Vec<u8>>> {
        self.stats.record_seg_block_read();
        let key = (self.slot, idx);
        if let Some(block) = self.cache.lru.lock().get(&key) {
            return Ok(Arc::clone(block));
        }
        self.stats.record_seg_block_fetch();
        let start = idx.saturating_mul(SEG_BLOCK as u64);
        let len = (SEG_BLOCK as u64).min(self.len.saturating_sub(start)) as usize;
        if len == 0 {
            return Err(corrupt(format!("segment block {idx} out of range")));
        }
        let mut buf = vec![0u8; len];
        self.store.read_at(start, &mut buf)?;
        let block = Arc::new(buf);
        if self.cache.lru.lock().insert(key, Arc::clone(&block)) > 0 {
            self.stats.record_seg_block_eviction();
        }
        Ok(block)
    }
}

/// One sorted section of an open file: block `g` of the section is
/// block `first_block + g` of the file, holds rows `R` as [`walk_rows`]
/// reads them, and starts with the key of `fences[g]`.
pub(crate) struct Section<R: PackedRow> {
    pub fences: Vec<R::Fence>,
    pub first_block: u64,
}

impl<R: PackedRow> Section<R> {
    /// The first key of block `g`.
    pub(crate) fn fence(&self, g: usize) -> &R::Key {
        R::fence_key(&self.fences[g])
    }

    /// The one fence-guided range scan. Keys ascend through the
    /// section, `before` holds on a prefix of them (the entries below
    /// the range) and `past` on a suffix (the entries above it); every
    /// entry in between goes to `visit`, in key order,
    /// until `visit` returns `false`. One binary search over the
    /// resident fences finds the block holding the first such entry
    /// (entries equal to the range's start can end the block before the
    /// first fence that is not `before`), [`walk_rows`] finds the entry
    /// inside it, and a following block is touched only if its fence is
    /// not `past`.
    pub(crate) fn scan(
        &self,
        file: &BlockFile,
        before: impl Fn(&R::Key) -> bool,
        past: impl Fn(&R::Key) -> bool,
        mut visit: impl FnMut(&R::Key, &R) -> bool,
    ) -> Result<()> {
        let not_before = self.fences.partition_point(|f| before(R::fence_key(f)));
        let first = not_before.saturating_sub(1);
        for g in first..self.fences.len() {
            if past(self.fence(g)) {
                break;
            }
            let block = file.block(self.first_block + g as u64)?;
            // Later blocks start inside the range: their fence is
            // neither `before` nor `past`.
            let skip = (g == first).then_some(&before);
            let each = |key: &R::Key, row: &R| Ok(!past(key) && visit(key, row));
            if walk_rows(&block, g, skip, each)?.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// The one sequential verification pass, 64 blocks a read (no
    /// cache): each block's first key must equal its resident fence,
    /// its pad bytes must be zero, and every entry goes to `check` with
    /// its index in the section. Returns the number of entries seen.
    pub(crate) fn verify(
        &self,
        store: &dyn RawStore,
        name: &str,
        mut check: impl FnMut(u64, &R::Key, &R) -> Result<()>,
    ) -> Result<u64> {
        let mut chunk = vec![0u8; 64 * SEG_BLOCK];
        let mut seen = 0u64;
        for g0 in (0..self.fences.len()).step_by(64) {
            let n = (self.fences.len() - g0).min(64);
            let bytes = &mut chunk[..n * SEG_BLOCK];
            store.read_at((self.first_block + g0 as u64) * SEG_BLOCK as u64, bytes)?;
            for (g, block) in (g0..).zip(bytes.chunks_exact(SEG_BLOCK)) {
                let in_block = seen;
                let no_skip = None::<&fn(&R::Key) -> bool>;
                let pad = walk_rows(block, g, no_skip, |key, row: &R| {
                    if seen == in_block && key != self.fence(g) {
                        return Err(corrupt(format!("{name} fence {g} disagrees")));
                    }
                    check(seen, key, row)?;
                    seen += 1;
                    Ok(true)
                })?;
                if seen == in_block {
                    return Err(corrupt(format!("{name} block {g} is empty")));
                }
                if pad.is_some_and(|pad| pad.iter().any(|&b| b != 0)) {
                    return Err(corrupt(format!("{name} block {g} padding is not zero")));
                }
            }
        }
        Ok(seen)
    }
}

/// Appends `v` as a LEB128 varint: seven bits a byte, low bits first,
/// the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Takes one varint off the front of `bytes`. `None` when the bytes end
/// inside it or it does not fit 64 bits (more than ten bytes, or a
/// tenth byte above 1); `bytes` is then left where it was.
#[inline]
pub fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
    // Nearly every stored value is below 128: one byte, one branch.
    let (&first, rest) = bytes.split_first()?;
    if first < 0x80 {
        *bytes = rest;
        return Some(u64::from(first));
    }
    let mut v = u64::from(first & 0x7f);
    for (i, &b) in rest.iter().take(9).enumerate() {
        if i == 8 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << (7 * (i + 1));
        if b < 0x80 {
            *bytes = &rest[i + 1..];
            return Some(v);
        }
    }
    None
}

/// [`take_varint`] for a field 32 bits wide.
#[inline]
pub(crate) fn take_varint32(bytes: &mut &[u8]) -> Option<u32> {
    take_varint(bytes).and_then(|v| u32::try_from(v).ok())
}

/// Rows between two restarts of a block, at most: what a search
/// decodes after its binary searches is at most this many rows. A
/// restart costs 7 bytes or more where a row coded against its
/// predecessor costs about 4; on the benchmark's EP segment (where most
/// restarts are changes of symbol anyway) a restart every 8 rows makes
/// the tag section 6 % larger than every 16, every 32 makes it 2.6 %
/// smaller (DESIGN.md §12).
pub(crate) const RESTART_EVERY: usize = 16;

/// Bytes of a block before its restart table: `n_rows` and
/// `n_restarts`, both `u16`.
const PACKED_HEAD: usize = 4;

/// A row of a restart-coded block: how it is coded in full, how as
/// what it adds to the row before it, and what of it a fence keeps.
pub(crate) trait PackedRow: Clone + Default {
    /// What the section is searched by.
    type Key: ?Sized + PartialEq;
    /// What stays resident of every block: its first key, one way or
    /// another.
    type Fence;
    /// Fewest bytes a row takes in a block.
    const MIN_LEN: usize;
    /// The most rows one block can hold.
    const MAX_PER_BLOCK: u64 = ((SEG_BLOCK - PACKED_HEAD) / Self::MIN_LEN) as u64;
    /// What error messages call the section.
    const NAME: &'static str;

    /// Hands `f` the row's key.
    fn with_key<T>(&self, f: impl FnOnce(&Self::Key) -> T) -> T;
    /// The key a fence stands for.
    fn fence_key(fence: &Self::Fence) -> &Self::Key;
    fn put_fence(&self, out: &mut Vec<u8>);
    /// Whether the row cannot be coded as a difference from `prev`.
    fn breaks_run(&self, prev: &Self) -> bool;
    /// Appends the row as varints: in full, or as what it adds to
    /// `prev`.
    fn encode(&self, prev: Option<&Self>, out: &mut Vec<u8>);
    /// Takes the next row off the front of `bytes` into `self`: in full
    /// at a `restart`, else as what it adds to the row `self` holds.
    /// `None` when the bytes end inside it, a field overflows, or the
    /// row does not sort strictly after the one before it.
    fn decode(&mut self, bytes: &mut &[u8], restart: bool) -> Option<()>;
    /// Takes the fully coded row `bytes` start with into `self` as far
    /// as a search over the restarts compares it: all of it, unless the
    /// row has a cheaper way to its key.
    fn decode_restart(&mut self, mut bytes: &[u8]) -> Option<()> {
        self.decode(&mut bytes, true)
    }
}

/// The one walk over a block of rows, each coded against the row
/// before it:
///
/// ```text
/// n_rows u16 | n_restarts u16 | restart offsets u16 × n_restarts | end u16 | rows | zeros
/// ```
///
/// A *restart* is a fully coded row; its offset in the block is in the
/// table, and the rows up to the next restart (or `end`) are
/// differences. The first row of a block, every row that
/// [`PackedRow::breaks_run`] and every [`RESTART_EVERY`]th row in a run
/// are restarts ([`RowPacker`]), so a search is a binary search over
/// the restarts and a decode of at most [`RESTART_EVERY`] rows. Every
/// offset, count and varint is checked against the block before it is
/// followed.
///
/// Feeds the rows of block `g`, in order, to `each(key, row)` until it
/// returns `false`, leaving out the leading rows whose key `before`
/// holds for. Returns the block's bytes past its last row (the
/// padding), or `None` when `each` stopped the walk.
pub(crate) fn walk_rows<'b, R: PackedRow>(
    block: &'b [u8],
    g: usize,
    before: Option<&impl Fn(&R::Key) -> bool>,
    mut each: impl FnMut(&R::Key, &R) -> Result<bool>,
) -> Result<Option<&'b [u8]>> {
    let bad = |what: &str| corrupt(format!("{} block {g}: {what}", R::NAME));
    let u16_of = |b: &[u8]| usize::from(u16::from_le_bytes([b[0], b[1]]));
    let Some((n_rows, n_restarts)) = block
        .get(..PACKED_HEAD)
        .map(|h| (u16_of(h), u16_of(&h[2..])))
    else {
        return Err(bad("cut short"));
    };
    let rows_at = PACKED_HEAD + 2 * (n_restarts + 1);
    // The table's last entry is where the rows end.
    let table = block.get(PACKED_HEAD..rows_at);
    let table = table.ok_or_else(|| bad("restart table runs past the block"))?;
    let offset = |r: usize| u16_of(&table[2 * r..]);
    if n_restarts == 0 || n_restarts > n_rows || offset(0) != rows_at {
        return Err(bad("restart table disagrees with its counts"));
    }
    let run = |r: usize| {
        let run = block.get(offset(r)..offset(r + 1));
        run.ok_or_else(|| bad("restart offsets out of order"))
    };
    let mut first = 0;
    if let Some(before) = before {
        // The last restart still below the range: the range's first
        // row is in its run, or opens the next.
        let (mut lo, mut hi) = (0, n_restarts);
        let mut row = R::default();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if row
                .decode_restart(block.get(offset(mid)..).unwrap_or_default())
                .is_none()
            {
                return Err(bad("restart is not a whole row inside its run"));
            }
            if row.with_key(before) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        first = lo.saturating_sub(1);
    }
    let mut skipping = before.is_some();
    let mut seen = 0;
    let mut row = R::default();
    for r in first..n_restarts {
        let mut rest = run(r)?;
        let mut in_run = 0;
        while !rest.is_empty() || in_run == 0 {
            if in_run == RESTART_EVERY || row.decode(&mut rest, in_run == 0).is_none() {
                return Err(bad(
                    "a row overflows, is out of order or runs past its restart",
                ));
            }
            in_run += 1;
            if skipping {
                if row.with_key(|key| before.is_some_and(|before| before(key))) {
                    continue;
                }
                skipping = false;
            }
            if !row.with_key(|key| each(key, &row))? {
                return Ok(None);
            }
        }
        seen += in_run;
    }
    if first == 0 && seen != n_rows {
        return Err(bad("row count disagrees with its rows"));
    }
    Ok(Some(&block[offset(n_restarts)..]))
}

/// A [`PackedRow`] with a fixed-width fence, resident as the decoded
/// key: a structural segment's rows.
pub(crate) trait FixedRow: PackedRow {
    /// Bytes of a stored fence.
    const FENCE_LEN: usize;

    fn fence(bytes: &[u8]) -> Self::Fence;
}

impl<R: FixedRow> Section<R> {
    /// Opens the section of `n_blocks` blocks at `off`, reading its
    /// fences in one sequential read at `fence_off`. The header was
    /// validated against the file length, so the array lies inside the
    /// file and is bounded by its size.
    pub(crate) fn open(
        store: &dyn RawStore,
        off: u64,
        fence_off: u64,
        n_blocks: u64,
    ) -> Result<Self> {
        let mut raw = vec![0u8; n_blocks as usize * R::FENCE_LEN];
        store.read_at(fence_off, &mut raw)?;
        Ok(Section {
            fences: raw.chunks_exact(R::FENCE_LEN).map(R::fence).collect(),
            first_block: off / SEG_BLOCK as u64,
        })
    }
}

/// The writing half of [`walk_rows`]: packs rows arriving in key order
/// into blocks, starting a new block when the next row no longer fits,
/// and collects the fences.
pub(crate) struct RowPacker<R> {
    /// The rows of the block being filled, and where in them its
    /// restarts are.
    rows: Vec<u8>,
    restarts: Vec<u16>,
    n_rows: usize,
    since_restart: usize,
    /// The last row pushed, if the block being filled holds one.
    prev: R,
    scratch: Vec<u8>,
    blocks: u64,
    /// The stored fence of every block begun.
    pub fences: Vec<u8>,
}

impl<R: PackedRow> RowPacker<R> {
    pub(crate) fn new() -> Self {
        RowPacker {
            rows: Vec::with_capacity(SEG_BLOCK),
            restarts: Vec::new(),
            n_rows: 0,
            since_restart: 0,
            prev: R::default(),
            scratch: Vec::new(),
            blocks: 0,
            fences: Vec::new(),
        }
    }

    /// Blocks begun so far.
    pub(crate) fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Adds `row` to the block being filled, or to a new one when it
    /// does not fit. `w` must stand on a block boundary when the first
    /// row arrives.
    pub(crate) fn push(&mut self, w: &mut SeqWriter, row: &R) -> Result<()> {
        let mut restart =
            self.n_rows == 0 || self.since_restart == RESTART_EVERY || row.breaks_run(&self.prev);
        self.scratch.clear();
        row.encode((!restart).then_some(&self.prev), &mut self.scratch);
        let table = 2 * (self.restarts.len() + 1 + usize::from(restart));
        if PACKED_HEAD + table + self.rows.len() + self.scratch.len() > SEG_BLOCK {
            self.flush(w)?;
            restart = true;
            self.scratch.clear();
            row.encode(None, &mut self.scratch);
        }
        if self.n_rows == 0 {
            row.put_fence(&mut self.fences);
            self.blocks += 1;
        }
        if restart {
            self.restarts.push(self.rows.len() as u16);
            self.since_restart = 0;
        }
        self.rows.extend_from_slice(&self.scratch);
        self.n_rows += 1;
        self.since_restart += 1;
        self.prev.clone_from(row);
        Ok(())
    }

    /// Writes the block being filled, if it holds a row, zero-padded.
    pub(crate) fn flush(&mut self, w: &mut SeqWriter) -> Result<()> {
        if self.n_rows == 0 {
            return Ok(());
        }
        debug_assert_eq!(w.pos() % SEG_BLOCK as u64, 0);
        let rows_at = PACKED_HEAD + 2 * (self.restarts.len() + 1);
        let u16_of = |v: usize| (v as u16).to_le_bytes();
        w.push_with(|buf| {
            buf.extend_from_slice(&u16_of(self.n_rows));
            buf.extend_from_slice(&u16_of(self.restarts.len()));
            for &at in &self.restarts {
                buf.extend_from_slice(&u16_of(rows_at + usize::from(at)));
            }
            buf.extend_from_slice(&u16_of(rows_at + self.rows.len()));
            buf.extend_from_slice(&self.rows);
        })?;
        w.pad_to_block();
        self.rows.clear();
        self.restarts.clear();
        self.n_rows = 0;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::structural::tests as seg;
    use super::super::structural::{SEG_KIND_EP, SEG_KIND_RP};
    use super::super::symrun::tests as sym;
    use super::super::valuerun::tests as run;
    use super::*;

    /// FNV-1a, 64 bits. (Not `crc32`: a sealed file ends in the CRC
    /// table of its own blocks, and the CRC-32 of such a file does not
    /// depend on what the blocks hold.)
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `bytes`, a sealed file, with the version word of its frame set
    /// to `version` and both its header CRC and its CRC table redone.
    fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
        reseal(&patch_header(bytes, 8, 4, |_| u64::from(version)))
    }

    /// The files these builders write, pinned as `(length, FNV-1a)`: an
    /// on-disk format does not move by accident, and a change that
    /// moves one must say so by editing these constants. The two
    /// structural files were re-pinned when segment format 3 packed
    /// their rows and records into varints (at format 2 both were
    /// 151 761 bytes), and when format 4 kept a tier's records in its EP
    /// file alone (the RP file, 65 629 bytes at format 3, lost its
    /// record section and record index; the EP file changed only its
    /// version word); the EP file again when format 5 laid its records
    /// out in a given order behind length prefixes (the prefixes fit
    /// the padding: 65 629 bytes either way) — the RP file, whose sections format 5 left alone, is
    /// still format 4's byte for byte once its version word is set
    /// back; the value run when its format 2 prefix-coded its keys and
    /// delta-coded its postings (at format 1 it was 62 759 bytes).
    #[test]
    fn files_are_byte_for_byte_what_the_parent_commit_wrote() {
        let paths = seg::sample_paths(2000, 11);
        for (kind, doc_base, as_version, want) in [
            (SEG_KIND_RP, 0, 4, (32_829, 12_265_844_467_701_941_141)),
            (SEG_KIND_EP, 77, 5, (65_629, 3_740_246_469_494_059_625)),
        ] {
            // The default budget (nothing spills) and a tiny one.
            for run_mem in [16 << 20, 1] {
                let (env, _) = seg::build_segment_as(&paths, run_mem, kind, doc_base);
                let bytes = env.store(".t.seg").unwrap().snapshot();
                assert_eq!(bytes[8..12], 5u32.to_le_bytes(), "segment kind {kind}");
                let bytes = with_version(&bytes, as_version);
                assert_eq!(
                    (bytes.len(), fnv64(&bytes)),
                    want,
                    "segment kind {kind}, run budget {run_mem}"
                );
            }
        }
        let run = run::build_run(&run::sample_entries(200, 43), 100, 200).snapshot();
        assert_eq!(
            (run.len(), fnv64(&run)),
            (16_596, 748_034_569_388_396_223),
            "value run"
        );
        let empty = run::build_run(&[], 7, 0).snapshot();
        assert_eq!(
            (empty.len(), fnv64(&empty)),
            (4_100, 7_761_964_859_799_963_142),
            "empty value run"
        );
    }

    /// Three files of one tier, in one [`BlockCache`]: equal block
    /// indexes of two files are two entries (a key without the file's
    /// slot hands the second file the first one's bytes), no read
    /// pattern makes the cache hold more than [`TIER_CACHE_BLOCKS`],
    /// and clearing it leaves every file cold.
    #[test]
    fn a_tier_cache_keeps_its_files_apart_within_its_budget() {
        use crate::store::MemStore;
        const BLOCKS: u64 = 150;
        let stats = Arc::new(IoStats::new());
        let cache = BlockCache::for_tier();
        // Block `b` of file `f` starts with `f` and `b`: its bytes say
        // whose it is.
        let files: Vec<BlockFile> = (0..3u64)
            .map(|f| {
                let store = MemStore::new();
                for b in 0..BLOCKS {
                    let mut block = vec![0u8; SEG_BLOCK];
                    block[..8].copy_from_slice(&f.to_le_bytes());
                    block[8..16].copy_from_slice(&b.to_le_bytes());
                    store.write_at(b * SEG_BLOCK as u64, &block).unwrap();
                }
                let len = BLOCKS * SEG_BLOCK as u64;
                BlockFile::new(Box::new(store), Arc::clone(&stats), len, &cache)
            })
            .collect();
        let whose = |f: usize, b: u64| {
            let block = files[f].block(b).unwrap();
            let word = |at: usize| u64::from_le_bytes(block[at..at + 8].try_into().unwrap());
            (word(0) as usize, word(8))
        };

        // Two files, the same indexes: fetched, then cached, each file
        // gets its own bytes.
        for _ in 0..2 {
            for b in 0..8 {
                for f in 0..2 {
                    assert_eq!(whose(f, b), (f, b));
                }
            }
        }
        let io = stats.snapshot();
        assert_eq!((io.seg_block_reads, io.seg_block_fetches), (32, 16));
        assert_eq!(cache.resident(), 16);

        // A mixed pattern: a hot set of one file, a sweep of another,
        // random blocks of all three — 450 blocks, more than twice the
        // budget.
        let mut rng = 0x5eed_u64;
        let mut sweep = 0;
        for i in 0..6000u64 {
            let (f, b) = match i % 3 {
                0 => (2, super::super::structural::tests::lcg(&mut rng) % 40),
                1 => {
                    sweep = (sweep + 1) % BLOCKS;
                    (1, sweep)
                }
                _ => {
                    let r = super::super::structural::tests::lcg(&mut rng);
                    ((r % 3) as usize, (r >> 8) % BLOCKS)
                }
            };
            assert_eq!(whose(f, b), (f, b));
            assert!(cache.resident() <= TIER_CACHE_BLOCKS, "read {i}");
        }
        assert_eq!(cache.resident(), TIER_CACHE_BLOCKS);
        let io = stats.snapshot();
        assert_eq!(
            io.seg_block_evictions,
            io.seg_block_fetches - TIER_CACHE_BLOCKS as u64,
            "every fetch past the budget evicts one block"
        );

        // Clearing empties the cache of every file: the next read of
        // each block is one fetch, the one after a hit.
        cache.clear();
        assert_eq!(cache.resident(), 0);
        for fetches in [3, 0] {
            let before = stats.snapshot();
            for f in 0..3 {
                assert_eq!(whose(f, 7), (f, 7));
            }
            let io = stats.snapshot().since(&before);
            assert_eq!((io.seg_block_reads, io.seg_block_fetches), (3, fetches));
        }
    }

    /// One packed block damaged a field at a time: every walk of it is
    /// `Corrupt` (a search into it may also come back clean when what
    /// it decodes is intact), none panics.
    #[test]
    fn hostile_packed_block_is_corrupt_never_a_panic() {
        use super::super::structural::TagEntry;
        use crate::store::MemStore;
        // 40 rows of symbol 3 and 5 of symbol 4: restarts at rows 0,
        // 16, 32 and 40, one-byte varints throughout.
        let rows: Vec<TagEntry> = (0..45u32)
            .map(|i| TagEntry {
                sym: if i < 40 { 3 } else { 4 },
                left: 10 + 2 * u64::from(i),
                right: 11 + 2 * u64::from(i),
                level: 1 + i,
                fine_gap: i % 7,
            })
            .collect();
        let mut w = SeqWriter::new(Box::new(MemStore::new()), 0);
        let mut packer = RowPacker::new();
        for row in &rows {
            packer.push(&mut w, row).unwrap();
        }
        packer.flush(&mut w).unwrap();
        assert_eq!(packer.blocks(), 1);
        let (store, len) = w.finish().unwrap();
        let mut good = vec![0u8; len as usize];
        store.read_at(0, &mut good).unwrap();
        assert_eq!(good.len(), SEG_BLOCK);

        let walk = |block: &[u8], from: Option<(u32, u64)>| {
            let mut got = Vec::new();
            let before = |k: &(u32, u64)| Some(*k) < from;
            let skip = from.is_some().then_some(&before);
            let pad = walk_rows(block, 0, skip, |_, row: &TagEntry| {
                got.push(*row);
                Ok(true)
            })?;
            assert!(pad.is_some_and(|pad| pad.iter().all(|&b| b == 0)));
            Ok::<_, StorageError>(got)
        };
        assert_eq!(walk(&good, None).unwrap(), rows);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(walk(&good, Some((row.sym, row.left))).unwrap(), rows[i..]);
        }

        // Header 4, five table entries, then row 0 (5 bytes) and its
        // fifteen differences (4 bytes each).
        let (table, rows_at) = (PACKED_HEAD, PACKED_HEAD + 2 * 5);
        let second_run = rows_at + 5 + 15 * 4;
        assert_eq!(
            good[table + 2..table + 4],
            (second_run as u16).to_le_bytes()
        );
        type Damage<'a> = (&'a str, &'a dyn Fn(&mut Vec<u8>));
        let damages: [Damage; 10] = [
            ("a count above its rows", &|b| b[0] += 1),
            ("no restarts", &|b| b[2] = 0),
            ("more restarts than rows", &|b| b[2] = 46),
            ("a restart outside the block", &|b| b[table + 3] = 0x20),
            ("restarts out of order", &|b| {
                b[table + 4] = b[table + 2] - 1
            }),
            ("rows not right after the table", &|b| b[table] += 1),
            ("a varint of eleven bytes", &|b| {
                b[rows_at + 5..][..11].fill(0xff)
            }),
            ("a varint past its run", &|b| b[second_run - 1] |= 0x80),
            ("a duplicate key", &|b| b[rows_at + 5] = 0),
            ("a block cut short", &|b| b.truncate(3)),
        ];
        for (what, damage) in damages {
            let mut bad = good.clone();
            damage(&mut bad);
            assert!(
                matches!(walk(&bad, None), Err(StorageError::Corrupt { .. })),
                "{what} went unnoticed"
            );
            for row in &rows {
                match walk(&bad, Some((row.sym, row.left))) {
                    Ok(_) | Err(StorageError::Corrupt { .. }) => {}
                    Err(e) => panic!("{what}: wrong error {e}"),
                }
            }
        }
        // A run of seventeen rows: the second restart dropped from the
        // table of a block rebuilt by hand.
        let mut long = good.clone();
        long[2] = 3;
        long.copy_within(table + 4..second_run, table + 2);
        long.copy_within(second_run.., second_run - 2);
        for at in [table, table + 2, table + 4, table + 6] {
            let off = u16::from_le_bytes([long[at], long[at + 1]]) - 2;
            long[at..at + 2].copy_from_slice(&off.to_le_bytes());
        }
        assert!(
            walk(&long, None).is_err(),
            "a run of 32 rows went unnoticed"
        );
    }

    /// `good` with the little-endian header field at `at..at + width`
    /// replaced by `f(old)` and the header CRC recomputed.
    pub(crate) fn patch_header(
        good: &[u8],
        at: usize,
        width: usize,
        f: impl Fn(u64) -> u64,
    ) -> Vec<u8> {
        let mut bytes = good.to_vec();
        let mut v = [0u8; 8];
        v[..width].copy_from_slice(&bytes[at..at + width]);
        let new = f(u64::from_le_bytes(v)).to_le_bytes();
        bytes[at..at + width].copy_from_slice(&new[..width]);
        let crc = crc32(&bytes[..120]);
        bytes[120..124].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// `bytes`, a sealed segment file, with its CRC table redone over
    /// what its blocks hold now: damage that only `verify`'s own checks
    /// can see, not the CRCs.
    pub(crate) fn reseal(bytes: &[u8]) -> Vec<u8> {
        let crc_off = u64::from_le_bytes(bytes[104..112].try_into().unwrap());
        let store = crate::store::MemStore::new();
        store.write_at(0, bytes).unwrap();
        let table = crc_table(&store, crc_off).unwrap();
        store.write_at(crc_off, &table).unwrap();
        store.snapshot()
    }

    /// One kind of file, for the hostile-bytes loop: its pristine
    /// image, where the sections `open` parses start, and a function
    /// that opens an image and reads everything its reader offers —
    /// `None` when `open`, `verify` or any read reports an error (every
    /// read is still made: none may panic), else the answers rendered.
    /// `oracle` is what the pristine image must render to; with
    /// `prefixes`, a run of its first lines is an answer too (the batch
    /// log ends its valid prefix at the first torn record).
    pub(crate) struct FileKind {
        pub name: &'static str,
        pub good: Vec<u8>,
        pub resident: u64,
        pub oracle: String,
        pub read_all: fn(Vec<u8>) -> Option<String>,
        pub prefixes: bool,
    }

    /// One way to damage a file.
    #[derive(Debug, Clone)]
    enum Damage {
        Flip { at: u64, mask: u8 },
        Truncate { len: u64 },
        Splice { from: u64, to: u64, len: u64 },
    }

    /// Whatever the damage to whichever file: an error somewhere, or
    /// exactly the answers of the undamaged file (or, for the log, the
    /// first of them). Never a panic.
    #[test]
    fn hostile_segment_or_value_run_is_an_error_never_a_panic() {
        use prix_testkit::{check, from_fn, Config};
        for kind in [
            seg::hostile_kind(),
            run::hostile_kind(),
            sym::hostile_kind(),
            super::super::manifest::tests::hostile_kind(),
            crate::wal::tests::hostile_kind(),
        ] {
            assert_eq!(
                (kind.read_all)(kind.good.clone()).as_ref(),
                Some(&kind.oracle),
                "{}: the undamaged file",
                kind.name
            );
            let (len, resident) = (kind.good.len() as u64, kind.resident);
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
            check(kind.name, &cfg, &damage, |d| {
                let mut bytes = kind.good.clone();
                match *d {
                    Damage::Flip { at, mask } => bytes[at as usize] ^= mask,
                    Damage::Truncate { len } => bytes.truncate(len as usize),
                    Damage::Splice { from, to, len } => {
                        let n = (len.min(bytes.len() as u64 - from.max(to))) as usize;
                        bytes.copy_within(from as usize..from as usize + n, to as usize);
                    }
                }
                let prefix = |got: &str| {
                    kind.prefixes && got.ends_with('\n') && kind.oracle.starts_with(got)
                };
                match (kind.read_all)(bytes) {
                    Some(got) if got != kind.oracle && !prefix(&got) => Err(format!(
                        "{d:?} went unnoticed and changed what the {} answers",
                        kind.name
                    )),
                    _ => Ok(()),
                }
            });
        }
    }
}
