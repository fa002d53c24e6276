//! Write-ahead log: append-only physical redo.
//!
//! The durability contract of the storage layer is *commit-grained
//! atomicity*: a [`crate::BufferPool::commit`] either happens entirely
//! or not at all, no matter where a crash lands. The WAL is the
//! mechanism. A commit appends the dirty page images as
//! length-prefixed, CRC-guarded frames, ends the batch with a **commit
//! record**, and `fsync`s the log — one append, one barrier, done. The
//! page file is not touched: the log is a real redo log that
//! accumulates commits until a **checkpoint**
//! ([`crate::BufferPool::checkpoint`]) copies the latest image of every
//! logged page into the page file, makes it durable, advances the
//! database epoch and only then truncates the log. A page image reaches
//! the page file only after the log holding it is durable — the
//! WAL-before-page invariant — so at any instant the durable state is
//! reconstructible:
//!
//! ```text
//!   WAL file layout
//!   ┌──────────────────────────┐
//!   │ header: magic ─ epoch ─ lsn      (24 bytes)
//!   ├──────────────────────────┤
//!   │ frame: len │ crc │ lsn │ page_id │ payload (page image)
//!   │ frame: …                                   ← eviction spills and
//!   │ frame: len │ crc │ lsn │ COMMIT  │ epoch_after   commit batches,
//!   │ frame: …                                     any number of them
//!   │ frame: len │ crc │ lsn │ COMMIT  │ epoch_after
//!   └──────────────────────────┘ ← fsync boundary; torn tail beyond
//! ```
//!
//! The log doubles as **spill space**: in durable mode the buffer pool
//! may not steal a dirty page into the page file between checkpoints
//! (a crash would persist a half-applied B⁺-tree mutation under the old
//! catalog), so evicted dirty pages are appended here — un-synced,
//! re-read on demand — and become part of the next commit simply by
//! preceding its commit record. Replay is latest-image-wins, so images
//! superseded by a later frame are harmless.
//!
//! [`recover`] ties it together on open: a log whose header epoch
//! matches the database epoch and that holds a valid commit record is
//! redo work the page file has not seen — replay it up to the last
//! commit. A log whose epoch is behind the database crashed *after* a
//! checkpoint made the pages durable but before truncation — discard
//! it. Anything torn (short frame, CRC mismatch) marks the end of the
//! valid prefix, exactly as if the crash had happened one write
//! earlier.

use std::sync::Arc;

use crate::crc::{crc32, crc32_update};
use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager, PAGE_SIZE};
use crate::stats::IoStats;
use crate::store::RawStore;

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"PRIXWAL\0";

/// Header: magic (8) + epoch (u64 LE) + next lsn (u64 LE).
const WAL_HEADER: u64 = 24;

/// Sentinel `page_id` of a commit record; its payload is the epoch the
/// batch establishes.
pub const COMMIT_PAGE: PageId = u64::MAX;

/// Bytes of frame header after the length prefix and CRC: lsn + page_id.
const FRAME_FIXED: usize = 16;

/// Largest legal frame body (a full page image). Anything bigger in a
/// length prefix is torn garbage.
const MAX_FRAME_BODY: usize = FRAME_FIXED + PAGE_SIZE;

/// Bytes of one page-image frame in the log: length prefix, CRC, lsn,
/// page id, image.
pub const PAGE_FRAME_BYTES: usize = 8 + MAX_FRAME_BODY;

/// One decoded WAL frame.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Log sequence number (monotonic within the log).
    pub lsn: u64,
    /// Page the payload redoes, or [`COMMIT_PAGE`].
    pub page_id: PageId,
    /// CRC-32 over lsn + page_id + payload, as stored.
    pub checksum: u32,
    /// Page image (or, for a commit record, the epoch after).
    pub payload: Vec<u8>,
}

impl LogRecord {
    /// `true` for a commit record.
    pub fn is_commit(&self) -> bool {
        self.page_id == COMMIT_PAGE
    }

    /// The epoch a commit record establishes.
    fn epoch_after(&self) -> Option<u64> {
        if !self.is_commit() || self.payload.len() != 8 {
            return None;
        }
        Some(u64::from_le_bytes(self.payload[..8].try_into().unwrap()))
    }
}

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
fn stage_frame(buf: &mut Vec<u8>, page_id: PageId, payload: &[u8]) {
    let body_len = (FRAME_FIXED + payload.len()) as u32;
    buf.extend_from_slice(&body_len.to_le_bytes());
    buf.extend_from_slice(&[0u8; 4 + 8]); // CRC + lsn
    buf.extend_from_slice(&page_id.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Stamps `lsn` into a staged frame and checksums its body in place.
fn seal_frame(frame: &mut [u8], lsn: u64) {
    frame[8..16].copy_from_slice(&lsn.to_le_bytes());
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

fn encode_frame(buf: &mut Vec<u8>, lsn: u64, page_id: PageId, payload: &[u8]) {
    let start = buf.len();
    stage_frame(buf, page_id, payload);
    seal_frame(&mut buf[start..], lsn);
}

/// Stages the frame of one page image in a commit batch: encoded
/// straight from the pool frame, with the lsn and CRC left for
/// [`Wal::append_commit_batch`] to fill in under the log's lock.
pub fn stage_page_frame(batch: &mut Vec<u8>, page_id: PageId, image: &[u8; PAGE_SIZE]) {
    stage_frame(batch, page_id, image);
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

    /// Appends one page-image frame (an eviction spill), returning the
    /// frame's offset for [`Wal::read_page`]. Write-through but **not
    /// synced**: spills carry no durability promise — they exist so the
    /// pool can re-read evicted dirty pages without stealing them into
    /// the page file before a checkpoint.
    pub fn append_page(&mut self, page_id: PageId, payload: &[u8; PAGE_SIZE]) -> Result<u64> {
        let offset = self.end;
        let mut buf = Vec::with_capacity(PAGE_FRAME_BYTES);
        encode_frame(&mut buf, self.next_lsn, page_id, payload);
        self.next_lsn += 1;
        self.store.write_at(offset, &buf)?;
        self.end += buf.len() as u64;
        self.stats.record_wal_append();
        Ok(offset)
    }

    /// Appends a commit batch — the page frames staged in `batch` by
    /// [`stage_page_frame`] plus the trailing commit record — as **one**
    /// contiguous write (group commit: one write, one [`Wal::sync`],
    /// however many pages the batch carries). Returns the offset of the
    /// first frame; frame *i* sits [`PAGE_FRAME_BYTES`]` * i` past it.
    pub fn append_commit_batch(&mut self, batch: &mut Vec<u8>, epoch_after: u64) -> Result<u64> {
        debug_assert_eq!(batch.len() % PAGE_FRAME_BYTES, 0);
        for frame in batch.chunks_exact_mut(PAGE_FRAME_BYTES) {
            seal_frame(frame, self.next_lsn);
            self.next_lsn += 1;
            self.stats.record_wal_append();
        }
        encode_frame(
            batch,
            self.next_lsn,
            COMMIT_PAGE,
            &epoch_after.to_le_bytes(),
        );
        self.next_lsn += 1;
        let offset = self.end;
        self.store.write_at(offset, batch)?;
        self.end += batch.len() as u64;
        Ok(offset)
    }

    /// Durability barrier: all appended frames survive a crash once
    /// this returns.
    pub fn sync(&mut self) -> Result<()> {
        self.store.sync()?;
        self.stats.record_fsync();
        self.durable_end = self.end;
        Ok(())
    }

    /// Reads the page image of the frame at `offset` (as returned by
    /// [`Wal::append_page`] / [`Wal::append_commit_batch`]) straight
    /// into `out`, verifying its checksum, and returns the page id the
    /// frame carries — how the pool re-reads a log-resident page.
    pub fn read_page(&self, offset: u64, out: &mut [u8; PAGE_SIZE]) -> Result<PageId> {
        let corrupt = |reason: String| StorageError::Corrupt { page: 0, reason };
        if offset + PAGE_FRAME_BYTES as u64 > self.end {
            return Err(corrupt(format!(
                "WAL frame offset {offset} past end {}",
                self.end
            )));
        }
        let mut head = [0u8; 8 + FRAME_FIXED];
        self.store.read_at(offset, &mut head)?;
        let body_len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        let checksum = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if body_len != MAX_FRAME_BODY {
            return Err(corrupt(format!(
                "WAL frame at {offset} is not a page image (length {body_len})"
            )));
        }
        self.store.read_at(offset + head.len() as u64, out)?;
        if crc32_update(crc32(&head[8..]), out) != checksum {
            return Err(corrupt(format!("WAL frame at {offset} fails its checksum")));
        }
        Ok(u64::from_le_bytes(head[16..24].try_into().unwrap()))
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

    /// The valid frame prefix: decodes frames from the header to the
    /// first torn or checksum-failing record (or EOF). Returns the
    /// records and the byte length of the valid prefix.
    fn scan(store: &dyn RawStore) -> Result<(Vec<LogRecord>, u64)> {
        let len = store.len()?;
        let mut records = Vec::new();
        let mut offset = WAL_HEADER;
        while offset + 8 <= len {
            let mut prefix = [0u8; 8];
            store.read_at(offset, &mut prefix)?;
            let body_len = u32::from_le_bytes(prefix[..4].try_into().unwrap()) as usize;
            let checksum = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
            if !(FRAME_FIXED..=MAX_FRAME_BODY).contains(&body_len) {
                break; // torn or garbage length
            }
            if offset + 8 + body_len as u64 > len {
                break; // short (torn) frame
            }
            let mut body = vec![0u8; body_len];
            store.read_at(offset + 8, &mut body)?;
            if crc32(&body) != checksum {
                break; // torn payload
            }
            records.push(LogRecord {
                lsn: u64::from_le_bytes(body[..8].try_into().unwrap()),
                page_id: u64::from_le_bytes(body[8..16].try_into().unwrap()),
                checksum,
                payload: body[FRAME_FIXED..].to_vec(),
            });
            offset += 8 + body_len as u64;
        }
        Ok((records, offset))
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
///   wal == db, valid COMMIT present   -> replay frames up to the last
///                                        commit (latest image wins),
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
/// The second row covers a log of one commit and a log of many alike:
/// commits accumulate between checkpoints, every one of them was
/// acknowledged, and the last commit record names the epoch they add
/// up to. Frames after it (spills, a torn batch) were never
/// acknowledged and are dropped.
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

    // Header check; anything unparseable means the log never got its
    // first sync (or isn't ours) — there is nothing redoable in it.
    let mut header = [0u8; WAL_HEADER as usize];
    let header_ok = raw_len >= WAL_HEADER && {
        store.read_at(0, &mut header)?;
        &header[..8] == WAL_MAGIC
    };
    if !header_ok {
        let mut wal = Wal {
            store,
            stats,
            epoch: db_epoch,
            next_lsn: 1,
            end: WAL_HEADER,
            durable_end: WAL_HEADER,
        };
        wal.reset(db_epoch)?;
        return Ok((wal, report));
    }

    let wal_epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let header_lsn = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let (records, valid_end) = Wal::scan(store.as_ref())?;
    report.wal_bytes = valid_end - WAL_HEADER;
    let next_lsn = records
        .iter()
        .map(|r| r.lsn + 1)
        .max()
        .unwrap_or(header_lsn)
        .max(header_lsn)
        .max(1);

    let last_commit = records.iter().rposition(|r| r.epoch_after().is_some());
    let mut epoch = db_epoch;
    if wal_epoch == db_epoch {
        if let Some(commit_idx) = last_commit {
            // Redo: latest image per page up to the last valid commit.
            let epoch_after = records[commit_idx].epoch_after().expect("checked");
            let mut latest: std::collections::HashMap<PageId, &LogRecord> =
                std::collections::HashMap::new();
            for rec in &records[..commit_idx] {
                if rec.is_commit() {
                    continue;
                }
                if rec.payload.len() != PAGE_SIZE {
                    return Err(StorageError::Corrupt {
                        page: rec.page_id,
                        reason: format!(
                            "WAL page frame has {}-byte payload, expected {PAGE_SIZE}",
                            rec.payload.len()
                        ),
                    });
                }
                report.replayed_frames += 1;
                latest.insert(rec.page_id, rec);
            }
            let mut buf = [0u8; PAGE_SIZE];
            for (page_id, rec) in &latest {
                // The crash may have lost the page file's length
                // extension for freshly allocated pages; re-extend.
                pager.ensure_allocated(*page_id)?;
                buf.copy_from_slice(&rec.payload);
                pager.write_page(*page_id, &buf)?;
                report.replayed_pages += 1;
            }
            // Page-before-epoch, exactly as in a checkpoint: a crash
            // *during recovery* must leave the log replayable,
            // so the epoch advance only becomes durable after the
            // restored pages have.
            pager.sync()?;
            pager.set_epoch(epoch_after)?;
            pager.sync_meta()?;
            epoch = epoch_after;
        }
    }

    let mut wal = Wal {
        store,
        stats,
        epoch,
        next_lsn,
        end: WAL_HEADER,
        durable_end: WAL_HEADER,
    };
    wal.reset(epoch)?;
    Ok((wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn mem_wal(epoch: u64) -> (Wal, MemStore) {
        let store = MemStore::new();
        let wal = Wal::create(Box::new(store.clone()), epoch, Arc::new(IoStats::new())).unwrap();
        (wal, store)
    }

    fn page(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([fill; PAGE_SIZE])
    }

    #[test]
    fn spill_frames_read_back() {
        let (mut wal, _store) = mem_wal(1);
        let a = wal.append_page(7, &page(0xAA)).unwrap();
        let b = wal.append_page(9, &page(0xBB)).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        assert_eq!(wal.read_page(a, &mut out).unwrap(), 7);
        assert!(out.iter().all(|&x| x == 0xAA));
        assert_eq!(wal.read_page(b, &mut out).unwrap(), 9);
        assert!(out.iter().all(|&x| x == 0xBB));
        assert!(wal.read_page(a + 1, &mut out).is_err(), "not a frame");
        assert!(!wal.is_empty());
        wal.reset(2).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.epoch(), 2);
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let (mut wal, store) = mem_wal(1);
        wal.append_page(1, &page(1)).unwrap();
        wal.append_page(2, &page(2)).unwrap();
        let full = store.len().unwrap();
        // Tear the second frame short.
        store.set_len(full - 100).unwrap();
        let (records, _end) = Wal::scan(&store).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].page_id, 1);
    }

    #[test]
    fn scan_stops_at_corrupt_crc() {
        let (mut wal, store) = mem_wal(1);
        let a = wal.append_page(1, &page(1)).unwrap();
        wal.append_page(2, &page(2)).unwrap();
        // Flip a payload byte of the first frame: both frames are
        // intact length-wise, but the valid prefix ends at frame 0.
        let mut bytes = store.snapshot();
        bytes[a as usize + 8 + FRAME_FIXED + 5] ^= 1;
        let patched = MemStore::from_bytes(bytes);
        let (records, end) = Wal::scan(&patched).unwrap();
        assert!(records.is_empty());
        assert_eq!(end, WAL_HEADER);
    }

    /// A commit batch of the given `(page, image)` pairs.
    fn commit(wal: &mut Wal, images: &[(PageId, Box<[u8; PAGE_SIZE]>)], epoch_after: u64) -> u64 {
        let mut batch = Vec::new();
        for (id, image) in images {
            stage_page_frame(&mut batch, *id, image);
        }
        wal.append_commit_batch(&mut batch, epoch_after).unwrap()
    }

    #[test]
    fn batch_frames_read_back_and_scan() {
        let (mut wal, store) = mem_wal(1);
        wal.append_page(3, &page(0x33)).unwrap();
        let off = commit(&mut wal, &[(7, page(0x77)), (9, page(0x99))], 2);
        let mut out = [0u8; PAGE_SIZE];
        assert_eq!(wal.read_page(off, &mut out).unwrap(), 7);
        assert_eq!(
            wal.read_page(off + PAGE_FRAME_BYTES as u64, &mut out)
                .unwrap(),
            9
        );
        assert!(out.iter().all(|&x| x == 0x99));
        // The staged-then-sealed frames are what `scan` expects: valid
        // CRCs, ascending lsns, the commit record last.
        let (records, end) = Wal::scan(&store).unwrap();
        assert_eq!(end, wal.len());
        let ids: Vec<_> = records.iter().map(|r| r.page_id).collect();
        assert_eq!(ids, [3, 7, 9, COMMIT_PAGE]);
        assert!(records.windows(2).all(|w| w[0].lsn < w[1].lsn));
        assert_eq!(records[3].epoch_after(), Some(2));
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
        let (mut wal, wal_store) = mem_wal(1);
        wal.append_page(a, &page(0x11)).unwrap(); // superseded spill
        commit(&mut wal, &[(a, page(0x22)), (b, page(0x33))], 2);
        wal.sync().unwrap();
        drop(wal);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        assert_eq!(pager.epoch(), 1);
        let (wal, report) = recover(&pager, Box::new(wal_store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert_eq!(report.replayed_frames, 3, "spill + 2 commit images");
        assert_eq!(report.replayed_pages, 2);
        assert!(report.wal_bytes > 0);
        assert_eq!(pager.epoch(), 2);
        assert_eq!(wal.epoch(), 2);
        assert!(wal.is_empty(), "log truncated after replay");
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 0x22, "commit image wins over the spill");
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf[0], 0x33);
        pager.verify_checksums().unwrap();
    }

    #[test]
    fn recover_replays_many_commits_up_to_the_last() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.sync().unwrap();
        // Three acknowledged commits accumulated without a checkpoint,
        // then a spill and a batch whose commit record never landed.
        let stats = pager.stats();
        let (mut wal, wal_store) = mem_wal(1);
        commit(&mut wal, &[(a, page(0x01))], 2);
        wal.sync().unwrap();
        wal.append_page(b, &page(0x0B)).unwrap(); // spill, committed by the next record
        commit(&mut wal, &[(a, page(0x02))], 3);
        wal.sync().unwrap();
        commit(&mut wal, &[(a, page(0x03))], 4);
        wal.sync().unwrap();
        let acked_end = wal.len();
        wal.append_page(b, &page(0xEE)).unwrap();
        commit(&mut wal, &[(a, page(0xFF))], 5);
        drop(wal);
        // Tear the last batch's commit record off.
        wal_store.set_len(wal_store.len().unwrap() - 10).unwrap();
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (wal, report) = recover(&pager, Box::new(wal_store), stats).unwrap();
        assert!(report.unclean_shutdown);
        assert!(report.log_len > acked_end);
        assert_eq!(report.replayed_frames, 4, "three images of a, one of b");
        assert_eq!(report.replayed_pages, 2);
        assert_eq!(pager.epoch(), 4, "the last acknowledged commit");
        assert!(wal.is_empty());
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 0x03, "latest committed image wins");
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(
            buf[0], 0x0B,
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
        let (mut wal, wal_store) = mem_wal(1);
        wal.append_page(a, &page(0x77)).unwrap(); // spill, no commit
        wal.sync().unwrap();
        drop(wal);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (_wal, report) = recover(&pager, Box::new(wal_store), stats).unwrap();
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
        let (mut wal, wal_store) = mem_wal(1);
        commit(&mut wal, &[(a, page(0xEE))], 2);
        wal.sync().unwrap();
        drop(wal);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (wal, report) = recover(&pager, Box::new(wal_store), stats).unwrap();
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

    #[test]
    fn recovery_is_idempotent() {
        let (pager, db, sum) = durable_pager();
        let a = pager.allocate().unwrap();
        pager.sync().unwrap();
        let stats = pager.stats();
        let (mut wal, wal_store) = mem_wal(1);
        commit(&mut wal, &[(a, page(0x42))], 2);
        wal.sync().unwrap();
        drop(wal);
        drop(pager);

        // First recovery crashes before the log truncation: simulate by
        // recovering against a *copy* of the log, then recovering the
        // original again.
        let pager = Pager::open_durable(Box::new(db.clone()), Box::new(sum.clone())).unwrap();
        let copy = MemStore::from_bytes(wal_store.snapshot());
        let (_w, r1) = recover(&pager, Box::new(copy), stats.clone()).unwrap();
        assert_eq!(r1.replayed_pages, 1);
        assert_eq!(pager.epoch(), 2);
        drop(pager);

        let pager = Pager::open_durable(Box::new(db), Box::new(sum)).unwrap();
        let (_w, r2) = recover(&pager, Box::new(wal_store), stats).unwrap();
        assert_eq!(r2.replayed_pages, 0, "epoch already advanced: stale log");
        assert_eq!(pager.epoch(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 0x42);
    }
}
