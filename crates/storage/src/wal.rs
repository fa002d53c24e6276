//! Write-ahead log: append-only physical redo.
//!
//! The durability contract of the storage layer is *commit-grained
//! atomicity*: a [`crate::BufferPool::commit`] either happens entirely
//! or not at all, no matter where a crash lands. The WAL is the
//! mechanism. A commit appends one length-prefixed, CRC-guarded frame
//! per dirty page, ends the batch with a **commit record**, and
//! `fsync`s the log — one append, one barrier, done. The page file is
//! not touched: the log is a real redo log that accumulates commits
//! until a **checkpoint** ([`crate::BufferPool::checkpoint`]) copies
//! the latest image of every logged page into the page file, makes it
//! durable, advances the database epoch and only then truncates the
//! log. A page image reaches the page file only after the log holding
//! it is durable — the WAL-before-page invariant — so at any instant
//! the durable state is reconstructible:
//!
//! ```text
//!   WAL file layout
//!   ┌──────────────────────────┐
//!   │ header: magic ─ epoch ─ lsn      (24 bytes)
//!   ├──────────────────────────┤
//!   │ frame: len │ crc │ lsn │ page_id │ base │ (off │ len │ bytes)*
//!   │ frame: …                                   ← eviction spills and
//!   │ frame: len │ crc │ lsn │ COMMIT  │ epoch_after   commit batches,
//!   │ frame: …                                     any number of them
//!   │ frame: len │ crc │ lsn │ COMMIT  │ epoch_after
//!   └──────────────────────────┘ ← fsync boundary; torn tail beyond
//! ```
//!
//! A page frame carries **what changed**, not the page: the byte runs
//! in which the page differs from its `base`. The first frame of a page
//! since the last checkpoint has base *zeros* — its runs are the
//! page's non-zero bytes, a self-contained image — and every later one
//! has base *previous*: the runs that differ from the image the log
//! already implies for that page. The page file is therefore never a
//! base: a page torn by a crashed checkpoint is rebuilt from the log
//! alone (the full-page-writes rule). Equal stretches shorter than 8
//! bytes ride along inside a run, which also caps a frame at one whole
//! image plus a run header. Frames depend on the ones before
//! them, so lsns count up by exactly one and a frame out of sequence
//! ends the valid prefix like a torn one.
//!
//! The log doubles as **spill space**: in durable mode the buffer pool
//! may not steal a dirty page into the page file between checkpoints
//! (a crash would persist a half-applied B⁺-tree mutation under the old
//! catalog), so evicted dirty pages are appended here — un-synced —
//! and become part of the next commit simply by preceding its commit
//! record. The pool keeps the image the log implies for each logged
//! page in memory: it is the base of the page's next frame, what a
//! miss copies, and what a checkpoint writes, so nothing ever reads the
//! log back but [`recover`].
//!
//! [`recover`] ties it together on open: a log whose header epoch
//! matches the database epoch and that holds a valid commit record is
//! redo work the page file has not seen — replay it up to the last
//! commit. A log whose epoch is behind the database crashed *after* a
//! checkpoint made the pages durable but before truncation — discard
//! it. Anything torn (short frame, CRC mismatch, lsn out of sequence)
//! marks the end of the valid prefix, exactly as if the crash had
//! happened one write earlier.

use std::collections::HashMap;
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager, PAGE_SIZE};
use crate::stats::IoStats;
use crate::store::RawStore;

/// Magic prefix of a WAL file (run-encoded frames).
pub const WAL_MAGIC: &[u8; 8] = b"PRIXWAL2";

/// Magic of the logs older builds wrote: full-page-image frames.
const WAL_MAGIC_V1: &[u8; 8] = b"PRIXWAL\0";

/// Header: magic (8) + epoch (u64 LE) + next lsn (u64 LE).
const WAL_HEADER: u64 = 24;

/// Sentinel `page_id` of a commit record; its payload is the epoch the
/// batch establishes.
pub const COMMIT_PAGE: PageId = u64::MAX;

/// Bytes of a frame ahead of its body: length prefix + CRC.
const FRAME_PREFIX: usize = 8;

/// Bytes of frame body ahead of the payload: lsn + page_id.
const FRAME_FIXED: usize = 16;

/// `base` of a page's first frame since the last checkpoint: the runs
/// are laid over a page of zeros.
const BASE_ZEROS: u8 = 0;

/// `base` of every later frame: the runs are laid over the image the
/// log's earlier frames imply for the page.
const BASE_PREVIOUS: u8 = 1;

/// Bytes of a run ahead of its data: offset (u16 LE) + length (u16 LE).
const RUN_HEADER: usize = 4;

/// Two differing bytes with fewer than this many equal ones between
/// them share a run. Above [`RUN_HEADER`], so a new run never costs
/// more than the gap it skips and the runs of one frame never exceed
/// `RUN_HEADER + PAGE_SIZE` bytes.
const MIN_GAP: usize = 8;

/// Largest legal frame body: a page frame whose single run is the whole
/// image. Anything bigger in a length prefix is torn garbage.
const MAX_FRAME_BODY: usize = FRAME_FIXED + 1 + RUN_HEADER + PAGE_SIZE;

/// The images a log implies, by page: what replaying its frames in
/// order over nothing yields.
pub type LogImages = HashMap<PageId, Box<[u8; PAGE_SIZE]>>;

/// What [`recover`] did on open. Surfaced through the engine into
/// `/metrics` and `prix fsck`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// `true` when the previous process did not shut down cleanly
    /// (the log held anything beyond its header).
    pub unclean_shutdown: bool,
    /// Valid frames replayed (including superseded images).
    pub replayed_frames: u64,
    /// Distinct pages rewritten into the page file.
    pub replayed_pages: u64,
    /// Valid WAL bytes scanned — replay cost is proportional to this.
    pub wal_bytes: u64,
    /// Length of the log file as found, header included.
    pub log_len: u64,
}

/// An open write-ahead log. Callers serialize access externally (the
/// buffer pool keeps it under one mutex), so methods take `&mut self`.
pub struct Wal {
    store: Box<dyn RawStore>,
    stats: Arc<IoStats>,
    epoch: u64,
    next_lsn: u64,
    /// Append position (bytes written so far, durable or not).
    end: u64,
    /// Bytes known durable (advanced by [`Wal::sync`]).
    durable_end: u64,
}

/// Appends a frame to `buf` with its lsn and CRC left blank;
/// [`seal_frame`] fills them in once the lsn is known.
fn stage_frame(buf: &mut Vec<u8>, page_id: PageId, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_PREFIX + 8]); // length, CRC, lsn
    buf.extend_from_slice(&page_id.to_le_bytes());
    payload(buf);
    let body_len = (buf.len() - start - FRAME_PREFIX) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Stamps `lsn` into a staged frame and checksums its body in place.
fn seal_frame(frame: &mut [u8], lsn: u64) {
    frame[8..16].copy_from_slice(&lsn.to_le_bytes());
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Bytes the frame at the head of `buf` occupies, prefix included.
fn frame_len(buf: &[u8]) -> usize {
    FRAME_PREFIX + u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize
}

/// Stages the frame of one page in a batch, straight from the pool
/// frame: the runs in which `image` differs from `base` — the image
/// the log already implies for the page — or, with no `base`, the
/// page's first frame since the last checkpoint: its non-zero runs.
/// The lsn and CRC are left for [`Wal::append`] to fill in under the
/// log's lock.
pub fn stage_page_frame(
    batch: &mut Vec<u8>,
    page_id: PageId,
    base: Option<&[u8; PAGE_SIZE]>,
    image: &[u8; PAGE_SIZE],
) {
    static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
    stage_frame(batch, page_id, |buf| {
        buf.push(if base.is_some() {
            BASE_PREVIOUS
        } else {
            BASE_ZEROS
        });
        let runs = buf.len();
        encode_runs(buf, base.unwrap_or(&ZEROS), image);
        debug_assert!(buf.len() - runs <= RUN_HEADER + PAGE_SIZE);
    });
}

/// Appends `(off, len, bytes)` for every run in which `image` differs
/// from `base`, ascending; differences fewer than [`MIN_GAP`] equal
/// bytes apart share a run.
fn encode_runs(buf: &mut Vec<u8>, base: &[u8; PAGE_SIZE], image: &[u8; PAGE_SIZE]) {
    let mut i = 0;
    while i < PAGE_SIZE {
        if base[i] == image[i] {
            // Equal stretches are most of a page: skip them a word at
            // a time.
            i += 1;
            while i + 8 <= PAGE_SIZE && base[i..i + 8] == image[i..i + 8] {
                i += 8;
            }
            continue;
        }
        let start = i;
        let mut end = i + 1; // one past the run's last differing byte
        i = end;
        while i < PAGE_SIZE && i - end < MIN_GAP {
            if base[i] != image[i] {
                end = i + 1;
            }
            i += 1;
        }
        buf.extend_from_slice(&(start as u16).to_le_bytes());
        buf.extend_from_slice(&((end - start) as u16).to_le_bytes());
        buf.extend_from_slice(&image[start..end]);
    }
}

/// One decoded frame, borrowing its payload.
struct Frame<'a> {
    lsn: u64,
    /// Page the payload redoes, or [`COMMIT_PAGE`].
    page_id: PageId,
    /// `base` and runs (or, for a commit record, the epoch after).
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Splits a frame body (everything after the length and CRC).
    fn decode(body: &'a [u8]) -> Self {
        Frame {
            lsn: u64::from_le_bytes(body[..8].try_into().unwrap()),
            page_id: u64::from_le_bytes(body[8..16].try_into().unwrap()),
            payload: &body[FRAME_FIXED..],
        }
    }

    /// The epoch a commit record establishes.
    fn epoch_after(&self) -> Option<u64> {
        if self.page_id != COMMIT_PAGE {
            return None;
        }
        Some(u64::from_le_bytes(self.payload.try_into().ok()?))
    }

    /// Lays a page frame's runs over the page's image in `images`.
    /// The frame has passed its CRC, so anything malformed here was
    /// written that way: a run past the page, empty or behind the one
    /// before it, an unknown base, a *previous* frame with no image to
    /// build on. All of them are errors naming the page and lsn.
    fn apply(&self, images: &mut LogImages) -> Result<()> {
        let corrupt = |what: String| StorageError::Corrupt {
            page: self.page_id,
            reason: format!("WAL frame lsn {}: {what}", self.lsn),
        };
        let (&base, mut runs) = self
            .payload
            .split_first()
            .ok_or_else(|| corrupt("no base byte".into()))?;
        let image = match base {
            BASE_ZEROS => {
                let image = images
                    .entry(self.page_id)
                    .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
                image.fill(0);
                image
            }
            BASE_PREVIOUS => images.get_mut(&self.page_id).ok_or_else(|| {
                corrupt("delta frame for a page with no earlier frame in this log".into())
            })?,
            other => return Err(corrupt(format!("unknown base {other}"))),
        };
        let mut floor = 0usize;
        while !runs.is_empty() {
            if runs.len() < RUN_HEADER {
                return Err(corrupt("truncated run header".into()));
            }
            let off = u16::from_le_bytes([runs[0], runs[1]]) as usize;
            let len = u16::from_le_bytes([runs[2], runs[3]]) as usize;
            let data = &runs[RUN_HEADER..];
            if len == 0 || off < floor || off + len > PAGE_SIZE || len > data.len() {
                return Err(corrupt(format!(
                    "bad run: offset {off}, length {len}, {} byte(s) left, previous run ended at {floor}",
                    data.len()
                )));
            }
            image[off..off + len].copy_from_slice(&data[..len]);
            floor = off + len;
            runs = &data[len..];
        }
        Ok(())
    }
}

/// Folds the sealed frames of `batch` — just appended to the log —
/// into `images`, keeping them what the log implies.
pub fn absorb_frames(mut batch: &[u8], images: &mut LogImages) -> Result<()> {
    while !batch.is_empty() {
        let (frame, rest) = batch.split_at(frame_len(batch));
        let frame = Frame::decode(&frame[FRAME_PREFIX..]);
        if frame.page_id != COMMIT_PAGE {
            frame.apply(images)?;
        }
        batch = rest;
    }
    Ok(())
}

/// Streams the valid frame prefix of a log through one reused buffer:
/// frames from the header to the first torn, checksum-failing or
/// out-of-sequence one (or EOF).
struct FrameReader<'a> {
    store: &'a dyn RawStore,
    len: u64,
    /// End of the last frame returned: the valid prefix so far.
    offset: u64,
    /// The lsn the next frame must carry.
    next_lsn: u64,
    body: Vec<u8>,
}

impl<'a> FrameReader<'a> {
    /// A reader at the first frame of `store`, which must carry
    /// `first_lsn` (the header's).
    fn new(store: &'a dyn RawStore, first_lsn: u64) -> Result<Self> {
        Ok(FrameReader {
            store,
            len: store.len()?,
            offset: WAL_HEADER,
            next_lsn: first_lsn,
            body: Vec::new(),
        })
    }

    fn next(&mut self) -> Result<Option<Frame<'_>>> {
        if self.offset + FRAME_PREFIX as u64 > self.len {
            return Ok(None);
        }
        let mut prefix = [0u8; FRAME_PREFIX];
        self.store.read_at(self.offset, &mut prefix)?;
        let body_len = u32::from_le_bytes(prefix[..4].try_into().unwrap()) as usize;
        let checksum = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        if !(FRAME_FIXED..=MAX_FRAME_BODY).contains(&body_len) {
            return Ok(None); // torn or garbage length
        }
        let end = self.offset + (FRAME_PREFIX + body_len) as u64;
        if end > self.len {
            return Ok(None); // short (torn) frame
        }
        self.body.resize(body_len, 0);
        self.store
            .read_at(self.offset + FRAME_PREFIX as u64, &mut self.body)?;
        if crc32(&self.body) != checksum {
            return Ok(None); // torn payload
        }
        let frame = Frame::decode(&self.body);
        if frame.lsn != self.next_lsn {
            return Ok(None); // not the frame that was appended here
        }
        self.offset = end;
        self.next_lsn += 1;
        Ok(Some(frame))
    }
}

impl Wal {
    /// Creates a fresh log (truncating `store`) at `epoch`.
    pub fn create(store: Box<dyn RawStore>, epoch: u64, stats: Arc<IoStats>) -> Result<Self> {
        let mut wal = Wal {
            store,
            stats,
            epoch,
            next_lsn: 1,
            end: WAL_HEADER,
            durable_end: WAL_HEADER,
        };
        wal.reset(epoch)?;
        Ok(wal)
    }

    /// The epoch this log extends (frames redo on top of a database at
    /// this epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when every appended byte has been `fsync`ed — the
    /// WAL-before-page invariant checks this before any page write.
    pub fn is_fully_durable(&self) -> bool {
        self.durable_end == self.end
    }

    /// Bytes currently in the log (header included).
    pub fn len(&self) -> u64 {
        self.end
    }

    /// `true` when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.end == WAL_HEADER
    }

    /// Appends the page frames staged in `batch` by
    /// [`stage_page_frame`] — sealed here, in order — and, with
    /// `commit`, the commit record establishing that epoch, as **one**
    /// contiguous write (group commit: one write, one [`Wal::sync`],
    /// however many pages the batch carries). Without `commit` the
    /// frames are eviction spills. Write-through but **not synced**:
    /// a frame carries no durability promise until a commit record
    /// follows it and [`Wal::sync`] returns. A failed write appends
    /// nothing: the next append reuses the offset and the lsns.
    pub fn append(&mut self, batch: &mut Vec<u8>, commit: Option<u64>) -> Result<()> {
        let mut lsn = self.next_lsn;
        let mut at = 0;
        while at < batch.len() {
            let end = at + frame_len(&batch[at..]);
            seal_frame(&mut batch[at..end], lsn);
            lsn += 1;
            at = end;
        }
        let frames = lsn - self.next_lsn;
        if let Some(epoch_after) = commit {
            let start = batch.len();
            stage_frame(batch, COMMIT_PAGE, |buf| {
                buf.extend_from_slice(&epoch_after.to_le_bytes())
            });
            seal_frame(&mut batch[start..], lsn);
            lsn += 1;
        }
        self.store.write_at(self.end, batch)?;
        self.next_lsn = lsn;
        self.end += batch.len() as u64;
        self.stats.record_wal_appends(frames);
        self.stats.record_wal_appended_bytes(batch.len() as u64);
        Ok(())
    }

    /// Durability barrier: all appended frames survive a crash once
    /// this returns.
    pub fn sync(&mut self) -> Result<()> {
        self.store.sync()?;
        self.stats.record_fsync();
        self.durable_end = self.end;
        Ok(())
    }

    /// Truncates the log back to a bare header at `epoch` and syncs —
    /// the end of a checkpoint or recovery, or initialization.
    pub fn reset(&mut self, epoch: u64) -> Result<()> {
        self.store.set_len(WAL_HEADER)?;
        let mut header = [0u8; WAL_HEADER as usize];
        header[..8].copy_from_slice(WAL_MAGIC);
        header[8..16].copy_from_slice(&epoch.to_le_bytes());
        header[16..24].copy_from_slice(&self.next_lsn.to_le_bytes());
        self.store.write_at(0, &header)?;
        self.store.sync()?;
        self.stats.record_fsync();
        self.epoch = epoch;
        self.end = WAL_HEADER;
        self.durable_end = WAL_HEADER;
        Ok(())
    }
}

/// Opens the log in `store` against an already-open durable `pager`,
/// replaying every commit the page file has not seen, and returns the
/// log ready for use plus a [`RecoveryReport`].
///
/// Decision table (db = pager epoch, wal = log header epoch):
///
/// ```text
///   header invalid / no frames        -> nothing to redo; fresh log at db
///   old magic, header only            -> a cleanly closed database of an
///                                        older build; fresh log at db
///   old magic, frames                 -> refused: only the build that
///                                        wrote them can replay them
///   wal == db, valid COMMIT present   -> replay frames up to the last
///                                        commit, in log order,
///                                        epoch := commit's epoch_after
///   wal == db, no COMMIT              -> crash before the first commit
///                                        fsync since the checkpoint:
///                                        spills only, nothing
///                                        acknowledged; discard
///   wal <  db                         -> crash after a checkpoint made
///                                        the pages durable but before
///                                        truncation; discard
///   wal >  db                         -> impossible under the protocol;
///                                        treat as stale and discard
/// ```
///
/// The fourth row covers a log of one commit and a log of many alike:
/// commits accumulate between checkpoints, every one of them was
/// acknowledged, and the last commit record names the epoch they add
/// up to. Frames after it (spills, a torn batch) were never
/// acknowledged and are dropped.
///
/// Replay streams the log twice through one frame buffer: once to find
/// the last valid commit record, once to lay the frames before it, in
/// order, over a per-page image map; each page is then written once.
/// Memory is the distinct pages logged, not the length of the log, and
/// nothing is written until every frame has applied cleanly — a frame
/// that passes its CRC but does not decode is
/// [`StorageError::Corrupt`], with the page file untouched.
///
/// Replay is idempotent — a crash *during* recovery just recovers
/// again from the same log.
pub fn recover(
    pager: &Pager,
    store: Box<dyn RawStore>,
    stats: Arc<IoStats>,
) -> Result<(Wal, RecoveryReport)> {
    let db_epoch = pager.epoch();
    let raw_len = store.len()?;
    let mut report = RecoveryReport {
        unclean_shutdown: raw_len != 0 && raw_len != WAL_HEADER,
        log_len: raw_len,
        ..RecoveryReport::default()
    };
    let mut wal = Wal {
        store,
        stats,
        epoch: db_epoch,
        next_lsn: 1,
        end: WAL_HEADER,
        durable_end: WAL_HEADER,
    };

    // Header check; anything unparseable means the log never got its
    // first sync (or isn't ours) — there is nothing redoable in it.
    let mut header = [0u8; WAL_HEADER as usize];
    if raw_len >= WAL_HEADER {
        wal.store.read_at(0, &mut header)?;
    }
    if &header[..8] == WAL_MAGIC_V1 && raw_len > WAL_HEADER {
        return Err(StorageError::Corrupt {
            page: 0,
            reason: format!(
                "the write-ahead log holds {} byte(s) of full-page frames, a format this \
                 build does not replay; open and close the database once with the build \
                 that wrote it, then open it with this one",
                raw_len - WAL_HEADER
            ),
        });
    }
    if &header[..8] != WAL_MAGIC {
        wal.reset(db_epoch)?;
        return Ok((wal, report));
    }
    let wal_epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let first_lsn = u64::from_le_bytes(header[16..24].try_into().unwrap());

    // Pass 1: how far the valid prefix runs, and which frame of it is
    // the last commit record.
    let mut frames = FrameReader::new(wal.store.as_ref(), first_lsn)?;
    let mut last_commit = None;
    while let Some(frame) = frames.next()? {
        if let Some(epoch_after) = frame.epoch_after() {
            last_commit = Some((frame.lsn, epoch_after));
        }
    }
    report.wal_bytes = frames.offset - WAL_HEADER;
    wal.next_lsn = frames.next_lsn.max(1);

    if let Some((commit_lsn, epoch_after)) = last_commit.filter(|_| wal_epoch == db_epoch) {
        // Pass 2: redo, in log order, up to the last valid commit.
        let mut images = LogImages::new();
        let mut frames = FrameReader::new(wal.store.as_ref(), first_lsn)?;
        while let Some(frame) = frames.next()?.filter(|f| f.lsn < commit_lsn) {
            if frame.page_id != COMMIT_PAGE {
                frame.apply(&mut images)?;
                report.replayed_frames += 1;
            }
        }
        let mut pages: Vec<PageId> = images.keys().copied().collect();
        pages.sort_unstable();
        for page_id in pages {
            // The crash may have lost the page file's length
            // extension for freshly allocated pages; re-extend.
            pager.ensure_allocated(page_id)?;
            pager.write_page(page_id, &images[&page_id])?;
            report.replayed_pages += 1;
        }
        // Page-before-epoch, exactly as in a checkpoint: a crash
        // *during recovery* must leave the log replayable,
        // so the epoch advance only becomes durable after the
        // restored pages have.
        pager.sync()?;
        pager.set_epoch(epoch_after)?;
        pager.sync_meta()?;
        wal.epoch = epoch_after;
    }

    wal.reset(wal.epoch)?;
    Ok((wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use prix_testkit::TestRng;

    fn mem_wal(epoch: u64) -> (Wal, MemStore) {
        let store = MemStore::new();
        let wal = Wal::create(Box::new(store.clone()), epoch, Arc::new(IoStats::new())).unwrap();
        (wal, store)
    }

    fn page(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([fill; PAGE_SIZE])
    }

    /// A log under construction plus the images it implies, kept the
    /// way the buffer pool keeps them.
    struct Log {
        wal: Wal,
        store: MemStore,
        images: LogImages,
    }

    impl Log {
        fn new(epoch: u64) -> Log {
            let (wal, store) = mem_wal(epoch);
            Log {
                wal,
                store,
                images: LogImages::new(),
            }
        }

        /// Appends one frame per `(page, image)` pair and, with
        /// `commit`, the commit record; returns the bytes appended.
        fn append(&mut self, pages: &[(PageId, &[u8; PAGE_SIZE])], commit: Option<u64>) -> u64 {
            let mut batch = Vec::new();
            for &(id, image) in pages {
                let base = self.images.get(&id).map(|b| &**b);
                stage_page_frame(&mut batch, id, base, image);
            }
            self.wal.append(&mut batch, commit).unwrap();
            absorb_frames(&batch, &mut self.images).unwrap();
            batch.len() as u64
        }

        fn spill(&mut self, id: PageId, image: &[u8; PAGE_SIZE]) -> u64 {
            self.append(&[(id, image)], None)
        }

        fn commit(&mut self, pages: &[(PageId, &[u8; PAGE_SIZE])], epoch_after: u64) {
            self.append(pages, Some(epoch_after));
            self.wal.sync().unwrap();
        }
    }

    /// The page ids of the valid frame prefix of `store`, and its end.
    fn scan(store: &MemStore, first_lsn: u64) -> (Vec<PageId>, u64) {
        let mut frames = FrameReader::new(store, first_lsn).unwrap();
        let mut ids = Vec::new();
        while let Some(frame) = frames.next().unwrap() {
            ids.push(frame.page_id);
        }
        (ids, frames.offset)
    }

    #[test]
    fn frames_carry_what_changed_and_images_follow_the_log() {
        let mut log = Log::new(1);
        // First frame of a page: its non-zero runs over zeros.
        let mut a = *page(0);
        a[100..140].fill(0xAA);
        a[8000..8192].fill(0xAB);
        let first = log.spill(7, &a);
        assert_eq!(
            first as usize,
            FRAME_PREFIX + FRAME_FIXED + 1 + 2 * RUN_HEADER + 40 + 192
        );
        // A later frame: the bytes that differ from the one before.
        a[120] = 1;
        a[127] = 2; // 6 equal bytes apart: one run
        a[136] = 3; // 8 equal bytes apart: a run of its own
        let delta = log.spill(7, &a);
        assert_eq!(
            delta as usize,
            FRAME_PREFIX + FRAME_FIXED + 1 + 2 * RUN_HEADER + 8 + 1
        );
        assert_eq!(&log.images[&7][..], &a[..]);
        // A page that did not change still gets its (empty) frame.
        let none = log.spill(7, &a);
        assert_eq!(none as usize, FRAME_PREFIX + FRAME_FIXED + 1);
        // A full page of noise costs one run header over the image.
        let mut rng = TestRng::from_seed(7);
        let mut noise = *page(0);
        noise.iter_mut().for_each(|b| *b = 1 + rng.below(255) as u8);
        let full = log.spill(9, &noise);
        assert_eq!(full as usize, FRAME_PREFIX + MAX_FRAME_BODY);
        assert_eq!(&log.images[&9][..], &noise[..]);

        // A first frame staged before a racing spill made the page
        // log-resident still stands alone: zeros first, then its runs.
        let mut fresh = Vec::new();
        stage_page_frame(&mut fresh, 9, None, &a);
        seal_frame(&mut fresh, 0);
        let mut images = LogImages::from([(9, Box::new(noise))]);
        absorb_frames(&fresh, &mut images).unwrap();
        assert_eq!(&images[&9][..], &a[..]);

        let stats = log.wal.stats.snapshot();
        assert_eq!(stats.wal_appends, 4);
        assert_eq!(stats.wal_appended_bytes, first + delta + none + full);
        assert_eq!(log.wal.len(), WAL_HEADER + stats.wal_appended_bytes);
        assert_eq!(scan(&log.store, 1), (vec![7, 7, 7, 9], log.wal.len()));
        assert!(!log.wal.is_empty());
        log.wal.reset(2).unwrap();
        assert!(log.wal.is_empty());
        assert_eq!(log.wal.epoch(), 2);
    }

    /// No page pair makes the runs longer than one image and one run
    /// header: a new run costs [`RUN_HEADER`] and is only opened after
    /// skipping at least [`MIN_GAP`] bytes.
    #[test]
    fn a_frame_is_capped_at_one_image() {
        let mut rng = TestRng::from_seed(0x5EED_0190);
        for period in 1..=24 {
            // A differing byte every `period` bytes, then random flips.
            let base = *page(0);
            let mut image = *page(0);
            image.iter_mut().step_by(period).for_each(|b| *b = 1);
            for _ in 0..rng.below(64) {
                image[rng.below(PAGE_SIZE as u64) as usize] ^= 0xFF;
            }
            let mut runs = Vec::new();
            encode_runs(&mut runs, &base, &image);
            assert!(runs.len() <= RUN_HEADER + PAGE_SIZE, "period {period}");
            let mut batch = Vec::new();
            stage_page_frame(&mut batch, 3, Some(&base), &image);
            seal_frame(&mut batch, 1);
            let mut images = LogImages::from([(3, Box::new(base))]);
            absorb_frames(&batch, &mut images).unwrap();
            assert_eq!(&images[&3][..], &image[..], "period {period}");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut log = Log::new(1);
        log.spill(1, &page(1));
        log.spill(2, &page(2));
        let full = log.store.len().unwrap();
        // Tear the second frame short.
        log.store.set_len(full - 100).unwrap();
        assert_eq!(scan(&log.store, 1).0, [1]);
    }

    #[test]
    fn scan_stops_at_corrupt_crc() {
        let mut log = Log::new(1);
        log.spill(1, &page(1));
        log.spill(2, &page(2));
        // Flip a payload byte of the first frame: both frames are
        // intact length-wise, but the valid prefix ends at frame 0.
        let mut bytes = log.store.snapshot();
        bytes[WAL_HEADER as usize + FRAME_PREFIX + FRAME_FIXED + 5] ^= 1;
        let patched = MemStore::from_bytes(bytes);
        assert_eq!(scan(&patched, 1), (vec![], WAL_HEADER));
    }

    /// Frames build on the ones before them, so one that is not next
    /// in sequence — a frame cut out of the middle, a stretch of log
    /// pasted in twice — ends the valid prefix.
    #[test]
    fn scan_stops_at_an_lsn_out_of_sequence() {
        let mut log = Log::new(1);
        let a = log.spill(1, &page(1)) as usize;
        let b = log.spill(2, &page(2)) as usize;
        log.spill(3, &page(3));
        let bytes = log.store.snapshot();
        let h = WAL_HEADER as usize;
        let mut cut = bytes[..h + a].to_vec();
        cut.extend_from_slice(&bytes[h + a + b..]);
        assert_eq!(scan(&MemStore::from_bytes(cut), 1).0, [1]);
        let mut twice = bytes[..h + a + b].to_vec();
        twice.extend_from_slice(&bytes[h..]);
        assert_eq!(scan(&MemStore::from_bytes(twice), 1).0, [1, 2]);
        assert_eq!(scan(&log.store, 1).0, [1, 2, 3]);
        assert_eq!(scan(&log.store, 2).0, [], "the header names the first lsn");
    }

    /// A store that fails one `write_at` each time `fail` is raised.
    struct FailNextWrite {
        inner: MemStore,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl RawStore for FailNextWrite {
        fn len(&self) -> Result<u64> {
            self.inner.len()
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.inner.set_len(len)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
            if self.fail.swap(false, std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("disk full").into());
            }
            self.inner.write_at(offset, buf)
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_failed_append_leaves_the_log_and_its_lsns_as_they_were() {
        let inner = MemStore::new();
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let store = FailNextWrite {
            inner: inner.clone(),
            fail: fail.clone(),
        };
        let mut wal = Wal::create(Box::new(store), 1, Arc::new(IoStats::new())).unwrap();
        let stage = |image: &[u8; PAGE_SIZE]| {
            let mut batch = Vec::new();
            stage_page_frame(&mut batch, 5, None, image);
            batch
        };
        wal.append(&mut stage(&page(1)), Some(2)).unwrap();
        let len = wal.len();
        fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(wal.append(&mut stage(&page(2)), Some(3)).is_err());
        assert_eq!(wal.len(), len);
        // The retry lands where the failed batch would have, in
        // sequence: the whole log scans.
        wal.append(&mut stage(&page(3)), Some(3)).unwrap();
        let (ids, end) = scan(&inner, 1);
        assert_eq!(ids, [5, COMMIT_PAGE, 5, COMMIT_PAGE]);
        assert_eq!(end, wal.len());
    }

    fn durable_pager() -> (Pager, MemStore, MemStore) {
        let db = MemStore::new();
        let sum = MemStore::new();
        let p = Pager::create_durable(Box::new(db.clone()), Box::new(sum.clone())).unwrap();
        (p, db, sum)
    }

    #[test]
    fn recover_replays_a_committed_batch() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.sync().unwrap();
        // A commit batch reached the WAL (synced) but never the pages.
        let stats = pager.stats();
        let mut log = Log::new(1);
        log.spill(a, &page(0x11)); // superseded spill
        log.commit(&[(a, &page(0x22)), (b, &page(0x33))], 2);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        assert_eq!(pager.epoch(), 1);
        let (wal, report) = recover(&pager, Box::new(log.store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert_eq!(report.replayed_frames, 3, "spill + 2 commit frames");
        assert_eq!(report.replayed_pages, 2);
        assert!(report.wal_bytes > 0);
        assert_eq!(pager.epoch(), 2);
        assert_eq!(wal.epoch(), 2);
        assert!(wal.is_empty(), "log truncated after replay");
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, *page(0x22), "commit frame over the spill");
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, *page(0x33));
        pager.verify_checksums().unwrap();
    }

    #[test]
    fn recover_replays_many_commits_up_to_the_last() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.sync().unwrap();
        // Three acknowledged commits accumulated without a checkpoint,
        // each a small delta on the one before, then a spill and a
        // batch whose commit record never landed.
        let stats = pager.stats();
        let mut log = Log::new(1);
        let mut image = *page(0x01);
        log.commit(&[(a, &image)], 2);
        log.spill(b, &page(0x0B)); // committed by the next record
        image[40] = 0x02;
        log.commit(&[(a, &image)], 3);
        image[4000..4100].fill(0x03);
        log.commit(&[(a, &image)], 4);
        let acked = image;
        let acked_end = log.wal.len();
        log.spill(b, &page(0xEE));
        image[40] = 0xFF;
        log.append(&[(a, &image)], Some(5));
        // Tear the last batch's commit record off.
        log.store.set_len(log.store.len().unwrap() - 10).unwrap();
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (wal, report) = recover(&pager, Box::new(log.store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert!(report.log_len > acked_end);
        assert_eq!(report.replayed_frames, 4, "three frames of a, one of b");
        assert_eq!(report.replayed_pages, 2);
        assert_eq!(pager.epoch(), 4, "the last acknowledged commit");
        assert!(wal.is_empty());
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, acked, "the first frame and both deltas, no more");
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(
            buf,
            *page(0x0B),
            "a spill ahead of a commit record is committed"
        );
    }

    #[test]
    fn recover_discards_uncommitted_spills() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        pager.write_page(a, &[9u8; PAGE_SIZE]).unwrap();
        pager.sync().unwrap();
        let stats = pager.stats();
        let mut log = Log::new(1);
        log.spill(a, &page(0x77)); // spill, no commit
        log.wal.sync().unwrap();
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (_wal, report) = recover(&pager, Box::new(log.store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert_eq!(report.replayed_pages, 0, "no commit record, no redo");
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "uncommitted spill fully disappears");
    }

    #[test]
    fn recover_discards_stale_log_from_older_epoch() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        pager.write_page(a, &[5u8; PAGE_SIZE]).unwrap();
        // The database moved on to epoch 3; the log still says 1 with a
        // full commit (crash after the page sync, before truncation).
        pager.set_epoch(3).unwrap();
        pager.sync().unwrap();
        let stats = pager.stats();
        let mut log = Log::new(1);
        log.commit(&[(a, &page(0xEE))], 2);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (wal, report) = recover(&pager, Box::new(log.store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert_eq!(report.replayed_pages, 0);
        assert_eq!(pager.epoch(), 3, "database epoch untouched");
        assert_eq!(wal.epoch(), 3, "log reset to the database epoch");
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 5, "stale log must not regress the page");
    }

    #[test]
    fn recover_tolerates_garbage_and_empty_logs() {
        for bytes in [Vec::new(), b"not a wal at all".to_vec()] {
            let (pager, _db, _sum) = durable_pager();
            let stats = pager.stats();
            let nonempty = !bytes.is_empty();
            let (wal, report) =
                recover(&pager, Box::new(MemStore::from_bytes(bytes)), stats).unwrap();
            assert_eq!(report.unclean_shutdown, nonempty);
            assert_eq!(report.replayed_frames, 0);
            assert!(wal.is_empty());
            assert_eq!(wal.epoch(), pager.epoch());
        }
    }

    /// A log header as the builds before run-encoded frames wrote it.
    fn v1_header(epoch: u64, next_lsn: u64) -> Vec<u8> {
        let mut header = WAL_MAGIC_V1.to_vec();
        header.extend_from_slice(&epoch.to_le_bytes());
        header.extend_from_slice(&next_lsn.to_le_bytes());
        header
    }

    #[test]
    fn a_header_only_log_of_an_older_build_is_rewritten() {
        let (pager, _db, _sum) = durable_pager();
        let log = MemStore::from_bytes(v1_header(pager.epoch(), 41));
        let (wal, report) = recover(&pager, Box::new(log.clone()), pager.stats()).unwrap();
        assert!(
            !report.unclean_shutdown,
            "that is a cleanly closed database"
        );
        assert!(wal.is_empty());
        assert_eq!(&log.snapshot()[..8], WAL_MAGIC);
        assert_eq!(log.len().unwrap(), WAL_HEADER);
    }

    #[test]
    fn a_log_of_an_older_build_that_holds_frames_is_refused() {
        let (pager, db, _sum) = durable_pager();
        let mut bytes = v1_header(pager.epoch(), 1);
        bytes.extend_from_slice(&[0u8; 8216]); // one full-page frame's worth
        let before = (db.snapshot(), bytes.clone());
        let log = MemStore::from_bytes(bytes);
        let err = match recover(&pager, Box::new(log.clone()), pager.stats()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("an old log with frames was opened"),
        };
        assert!(err.contains("full-page frames"), "{err}");
        assert!(err.contains("with the build that wrote it"), "{err}");
        assert_eq!((db.snapshot(), log.snapshot()), before, "nothing touched");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        pager.sync().unwrap();
        let stats = pager.stats();
        let mut log = Log::new(1);
        log.commit(&[(a, &page(0x42))], 2);
        drop(pager);

        // First recovery crashes before the log truncation: simulate by
        // recovering against a *copy* of the log, then recovering the
        // original again.
        let pager = Pager::open_durable(Box::new(db.clone()), Box::new(sum.clone())).unwrap();
        let copy = MemStore::from_bytes(log.store.snapshot());
        let (_w, r1) = recover(&pager, Box::new(copy), stats.clone()).unwrap();
        assert_eq!(r1.replayed_pages, 1);
        assert_eq!(pager.epoch(), 2);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (_w, r2) = recover(&pager, Box::new(log.store), stats).unwrap();
        assert_eq!(r2.replayed_pages, 0, "epoch already advanced: stale log");
        assert_eq!(pager.epoch(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 0x42);
    }

    /// A one-commit log whose single page frame (page 1, lsn 1) has
    /// `payload` for its base byte and runs, CRC valid.
    fn log_with_payload(payload: &[u8]) -> MemStore {
        let (mut wal, store) = mem_wal(1);
        let mut batch = Vec::new();
        stage_frame(&mut batch, 1, |buf| buf.extend_from_slice(payload));
        wal.append(&mut batch, Some(2)).unwrap();
        store
    }

    fn run(off: u16, len: u16, data: &[u8]) -> Vec<u8> {
        let mut r = off.to_le_bytes().to_vec();
        r.extend_from_slice(&len.to_le_bytes());
        r.extend_from_slice(data);
        r
    }

    /// Frames that pass their CRC and still make no sense are refused
    /// by name — page and lsn — with the page file left alone.
    #[test]
    fn hostile_frames_are_errors_naming_page_and_lsn() {
        let cases: [(&str, Vec<u8>); 8] = [
            ("no base byte", vec![]),
            ("unknown base 7", [vec![7], run(0, 1, &[1])].concat()),
            (
                "no earlier frame in this log",
                [vec![BASE_PREVIOUS], run(0, 1, &[1])].concat(),
            ),
            (
                "offset 8191, length 2",
                [vec![BASE_ZEROS], run(8191, 2, &[1, 2])].concat(),
            ),
            (
                "offset 65535, length 65535",
                [vec![BASE_ZEROS], run(65535, 65535, &[1])].concat(),
            ),
            ("length 0", [vec![BASE_ZEROS], run(10, 0, &[])].concat()),
            (
                "previous run ended at 14",
                [vec![BASE_ZEROS], run(10, 4, &[1; 4]), run(13, 1, &[1])].concat(),
            ),
            ("truncated run header", vec![BASE_ZEROS, 1, 0, 1]),
        ];
        for (what, payload) in cases {
            let (pager, db, _sum) = durable_pager();
            pager.allocate().unwrap();
            let before = db.snapshot();
            let log = log_with_payload(&payload);
            let err = match recover(&pager, Box::new(log), pager.stats()) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("{what}: recovered"),
            };
            assert!(err.contains("corrupt page 1: WAL frame lsn 1"), "{err}");
            assert!(err.contains(what), "{what}: {err}");
            assert_eq!(db.snapshot(), before, "{what}: page file touched");
            assert_eq!(pager.epoch(), 1, "{what}");
        }
        // More run bytes claimed than the frame holds.
        let short = [vec![BASE_ZEROS], run(0, 9, &[1; 8])].concat();
        let (pager, _db, _sum) = durable_pager();
        let err = recover(&pager, Box::new(log_with_payload(&short)), pager.stats());
        assert!(matches!(err, Err(StorageError::Corrupt { page: 1, .. })));
    }

    /// One page of one commit of a scripted log: fills laid over the
    /// page's last image, logged as a spill ahead of the commit batch
    /// or as part of it.
    #[derive(Debug)]
    struct Touch {
        page: PageId,
        fills: Vec<(usize, usize, u8)>,
        spill: bool,
    }

    /// What is done to a valid log before it is recovered. Positions
    /// are raw draws, reduced modulo what the log turns out to hold.
    #[derive(Debug)]
    enum Mutation {
        Flip {
            at: u64,
            bit: u8,
        },
        Truncate {
            at: u64,
        },
        /// Splices at frame boundaries, so every frame of the result
        /// still passes its CRC: a stretch of frames cut out…
        Cut {
            from: u64,
            to: u64,
        },
        /// …or pasted in again somewhere.
        Paste {
            from: u64,
            to: u64,
            at: u64,
        },
    }

    /// Any log — flipped, truncated, spliced — recovers to the images
    /// of one of its committed prefixes, or is refused; it never
    /// panics and never reads a frame longer than [`MAX_FRAME_BODY`].
    #[test]
    fn mutated_logs_recover_a_committed_prefix_or_are_refused() {
        use prix_testkit::{check, from_fn, Config};
        const PAGES: u64 = 6;
        let cases = from_fn(|rng| {
            let commits: Vec<Vec<Touch>> = (0..rng.range(2, 5))
                .map(|_| {
                    (0..rng.range(1, 4))
                        .map(|_| Touch {
                            page: rng.range(1, PAGES),
                            fills: (0..rng.below(4))
                                .map(|_| {
                                    let at = rng.below(PAGE_SIZE as u64) as usize;
                                    let len = (rng.below(300) as usize).min(PAGE_SIZE - at);
                                    (at, len, rng.below(4) as u8) // zeros now and then
                                })
                                .collect(),
                            spill: rng.chance(0.3),
                        })
                        .collect()
                })
                .collect();
            let mutation = match rng.below(4) {
                0 => Mutation::Flip {
                    at: rng.next_u64(),
                    bit: rng.below(8) as u8,
                },
                1 => Mutation::Truncate { at: rng.next_u64() },
                2 => Mutation::Cut {
                    from: rng.next_u64(),
                    to: rng.next_u64(),
                },
                _ => Mutation::Paste {
                    from: rng.next_u64(),
                    to: rng.next_u64(),
                    at: rng.next_u64(),
                },
            };
            (commits, mutation)
        });
        check(
            "mutated_logs_recover_a_committed_prefix_or_are_refused",
            &Config::cases(192),
            &cases,
            |(commits, mutation)| {
                // The valid log, and the images every commit leaves:
                // `states[e]` is the database at epoch `e`.
                let (pager, db, sum) = durable_pager();
                for _ in 0..PAGES {
                    pager.allocate().unwrap();
                }
                pager.sync().unwrap();
                drop(pager);
                let mut log = Log::new(1);
                let mut model = vec![*page(0); PAGES as usize + 1];
                let mut states = vec![vec![], model.clone()];
                let mut frame_ends = vec![WAL_HEADER];
                for (commit, epoch) in commits.iter().zip(2..) {
                    let mut batch = Vec::new();
                    for touch in commit {
                        let image = &mut model[touch.page as usize];
                        for &(at, len, fill) in &touch.fills {
                            image[at..at + len].fill(fill);
                        }
                        if touch.spill {
                            log.spill(touch.page, image);
                            frame_ends.push(log.wal.len());
                        } else {
                            batch.push(touch.page);
                        }
                    }
                    for id in batch {
                        log.append(&[(id, &model[id as usize])], None);
                        frame_ends.push(log.wal.len());
                    }
                    log.commit(&[], epoch);
                    frame_ends.push(log.wal.len());
                    states.push(model.clone());
                }

                let mut bytes = log.store.snapshot();
                let end = |raw: u64| frame_ends[(raw % frame_ends.len() as u64) as usize] as usize;
                match *mutation {
                    Mutation::Flip { at, bit } => {
                        let frames = bytes.len() as u64 - WAL_HEADER;
                        bytes[(WAL_HEADER + at % frames) as usize] ^= 1 << bit;
                    }
                    Mutation::Truncate { at } => {
                        bytes.truncate((at % (bytes.len() as u64 + 1)) as usize)
                    }
                    Mutation::Cut { from, to } => {
                        let (a, b) = (end(from), end(to));
                        bytes.drain(a.min(b)..a.max(b));
                    }
                    Mutation::Paste { from, to, at } => {
                        let (a, b, at) = (end(from), end(to), end(at));
                        let piece = bytes[a.min(b)..a.max(b)].to_vec();
                        bytes.splice(at..at, piece);
                    }
                }

                let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
                let stats = pager.stats();
                if recover(&pager, Box::new(MemStore::from_bytes(bytes)), stats).is_err() {
                    return Ok(());
                }
                let epoch = pager.epoch();
                let want = states
                    .get(epoch as usize)
                    .ok_or(format!("recovered to unknown epoch {epoch}"))?;
                let mut buf = [0u8; PAGE_SIZE];
                for id in 1..=PAGES {
                    pager.read_page(id, &mut buf).map_err(|e| e.to_string())?;
                    if buf != want[id as usize] {
                        return Err(format!("page {id} is not its image at epoch {epoch}"));
                    }
                }
                Ok(())
            },
        );
    }
}
