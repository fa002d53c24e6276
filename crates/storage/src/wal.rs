//! The batch log: the one file of a database that is appended to.
//!
//! A file-backed database is a manifest, immutable tiers and this log.
//! The tiers hold every document a bulk build or a compaction folded
//! into them; the log holds, exactly as they arrived, the ingest
//! batches the live generation accepted since — one **record** per
//! commit — and reopening rebuilds the in-memory delta by replaying
//! them through the same ingest calls. A commit is one append and one
//! `fsync`; nothing else on disk changes until the next compaction,
//! which writes the delta as a tier and starts a fresh log.
//!
//! ```text
//!   log file layout
//!   ┌────────────────────────────────────────────────────────┐
//!   │ header: magic │ base epoch │ CRC                        (20 bytes)
//!   ├────────────────────────────────────────────────────────┤
//!   │ record: len │ CRC │ epoch │ n │ (mode │ len │ body) × n   (one per commit)
//!   │ record: …
//!   └────────────────────────────────────────────────────────┘ ← fsync boundary;
//!                                                               torn tail beyond
//! ```
//!
//! The header is written and synced before the manifest names the log,
//! so a header that does not check is damage, never a crash, and is
//! refused. It carries the epoch the generation starts at. A log whose
//! header is an older build's (magic `PRIXLOG1`, which carried a blob
//! of planner statistics) is refused by name: re-index. A record
//! carries the epoch it establishes — the one after the record before
//! it — and its bodies, each a document or a wrapper whose element
//! children are the documents ([`BatchMode`]).
//!
//! Reading stops at the first record that is torn: shorter than its
//! length says, too short to be a record, or failing its CRC. That is
//! where a crash mid-append leaves the file, and the **valid prefix**
//! before it is every acknowledged commit; nothing after it is ever
//! replayed, and the next append first cuts it off. A record that
//! passes its CRC but does not decode — a count its bytes cannot hold,
//! an unknown mode, an epoch out of sequence — was written that way
//! (or spliced in), and is an error naming its LSN, the record's
//! position in the log counted from 1.

use std::sync::Arc;

use crate::crc::crc32;
use crate::error::Result;
use crate::segment::blockfile::corrupt;
use crate::stats::IoStats;
use crate::store::RawStore;

/// Magic prefix of a batch log.
const LOG_MAGIC: &[u8; 8] = b"PRIXLOG2";
/// Magic prefix of the log older builds wrote, whose header carried a
/// blob of planner statistics.
const OLD_LOG_MAGIC: &[u8; 8] = b"PRIXLOG1";

/// Length at which the writer folds the log into a tier: a compaction
/// starts a fresh log. It bounds what a reopen replays and the disk
/// the log holds.
pub const CHECKPOINT_LOG_BYTES: u64 = 8 << 20;

/// Header bytes: magic, base epoch, CRC.
const HEADER: usize = 20;
/// Record bytes ahead of the payload: payload length, CRC.
const FRAME: usize = 8;
/// Payload bytes ahead of the bodies: epoch, body count.
const RECORD_HEAD: usize = 12;
/// Bytes ahead of each body: mode, length.
const BODY_HEAD: usize = 5;

/// How replay turns a body into documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// The body is one document.
    Doc = 0,
    /// The body is a wrapper: each element child of its root is one
    /// document.
    Split = 1,
}

/// One commit: the epoch it establishes and the bodies it accepted (or
/// refused — a refused document interned names too, and replay must
/// intern them again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The epoch the commit establishes.
    pub epoch: u64,
    /// The batch as received, in order.
    pub bodies: Vec<(BatchMode, String)>,
}

/// A log as [`BatchLog::read`] found it.
#[derive(Debug, Clone)]
pub struct LogContents {
    /// The epoch the generation started at.
    pub base_epoch: u64,
    /// The records of the valid prefix.
    pub records: Vec<LogRecord>,
    /// Where the valid prefix ends.
    pub valid_len: u64,
    /// The file's length.
    pub file_len: u64,
}

/// What reopening a database replayed, surfaced through the engine into
/// `/metrics` and `prix fsck`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// The log ended in a torn record: the last process died mid-append.
    pub unclean_shutdown: bool,
    /// Records replayed.
    pub replayed_frames: u64,
    /// Documents the replay indexed.
    pub replayed_documents: u64,
    /// Bytes of the valid prefix, header included: what the replay read.
    pub wal_bytes: u64,
    /// Length of the log as found.
    pub log_len: u64,
}

/// The open log of the live generation. One writer: the engine that
/// owns it.
pub struct BatchLog {
    store: Box<dyn RawStore>,
    stats: Arc<IoStats>,
    /// The epoch the last record established (the base with none).
    epoch: u64,
    records: u64,
    /// End of the valid prefix: where the next record goes.
    end: u64,
    /// Bytes past `end` (a torn tail) that the next append cuts off.
    torn: bool,
}

/// Splits `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = r.split_at_checked(n)?;
    *r = rest;
    Some(head)
}

fn take_u32(r: &mut &[u8]) -> Option<u32> {
    take(r, 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

fn take_u64(r: &mut &[u8]) -> Option<u64> {
    take(r, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// The payload of the record at `lsn`, which must establish `epoch`.
fn decode(lsn: u64, epoch: u64, payload: &[u8]) -> Result<LogRecord> {
    let bad = |what: String| corrupt(format!("batch log record {lsn}: {what}"));
    let mut r = payload;
    let found = take_u64(&mut r).expect("a payload holds its head");
    let n = take_u32(&mut r).expect("a payload holds its head") as usize;
    if found != epoch {
        return Err(bad(format!(
            "establishes epoch {found}, the record before it {}",
            epoch - 1
        )));
    }
    if n > r.len() / BODY_HEAD {
        return Err(bad(format!("{n} bodies in {} bytes", r.len())));
    }
    let mut bodies = Vec::with_capacity(n);
    for i in 0..n {
        let head = take(&mut r, BODY_HEAD).ok_or_else(|| bad(format!("body {i} cut short")))?;
        let mode = match head[0] {
            0 => BatchMode::Doc,
            1 => BatchMode::Split,
            m => return Err(bad(format!("unknown mode byte {m}"))),
        };
        let len = u32::from_le_bytes(head[1..].try_into().unwrap()) as usize;
        let body = take(&mut r, len).ok_or_else(|| bad(format!("body {i} cut short")))?;
        let body =
            String::from_utf8(body.to_vec()).map_err(|_| bad(format!("body {i} is not UTF-8")))?;
        bodies.push((mode, body));
    }
    if !r.is_empty() {
        return Err(bad(format!("{} bytes after its last body", r.len())));
    }
    Ok(LogRecord { epoch, bodies })
}

impl BatchLog {
    /// Creates a log in `store` (truncating it) for a generation that
    /// starts at `base_epoch`, and syncs it. Log I/O counts into
    /// `stats`.
    pub fn create(store: Box<dyn RawStore>, base_epoch: u64, stats: Arc<IoStats>) -> Result<Self> {
        let mut header = LOG_MAGIC.to_vec();
        header.extend_from_slice(&base_epoch.to_le_bytes());
        header.extend_from_slice(&crc32(&base_epoch.to_le_bytes()).to_le_bytes());
        store.set_len(0)?;
        store.write_at(0, &header)?;
        store.sync()?;
        stats.record_fsync();
        Ok(BatchLog {
            store,
            stats,
            epoch: base_epoch,
            records: 0,
            end: header.len() as u64,
            torn: false,
        })
    }

    /// Reads the header and the valid prefix of the log in `store`.
    pub fn read(store: &dyn RawStore) -> Result<LogContents> {
        let file_len = store.len()?;
        let mut bytes = vec![0u8; file_len as usize];
        store.read_at(0, &mut bytes)?;
        if bytes.starts_with(OLD_LOG_MAGIC) {
            return Err(corrupt(
                "batch log format PRIXLOG1, with planner statistics in its header, \
                 is not supported (this build reads PRIXLOG2); re-index the source documents"
                    .into(),
            ));
        }
        let mut r = &bytes[..];
        let header = take(&mut r, HEADER)
            .filter(|h| &h[..8] == LOG_MAGIC)
            .ok_or_else(|| corrupt("not a batch log (bad magic or length)".into()))?;
        let crc = u32::from_le_bytes(header[16..].try_into().unwrap());
        if crc32(&header[8..16]) != crc {
            return Err(corrupt("batch log header fails its checksum".into()));
        }
        let base_epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let mut contents = LogContents {
            base_epoch,
            records: Vec::new(),
            valid_len: HEADER as u64,
            file_len,
        };
        loop {
            let mut rec = r;
            let Some(frame) = take(&mut rec, FRAME) else {
                break;
            };
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(frame[4..].try_into().unwrap());
            let payload = match take(&mut rec, len) {
                Some(p) if len >= RECORD_HEAD && crc32(p) == crc => p,
                _ => break, // the torn tail
            };
            let lsn = contents.records.len() as u64 + 1;
            let epoch = base_epoch + lsn;
            contents.records.push(decode(lsn, epoch, payload)?);
            contents.valid_len += (FRAME + len) as u64;
            r = rec;
        }
        Ok(contents)
    }

    /// The writer of the log `contents` was read from: appends go after
    /// its valid prefix, and the first of them cuts off any torn tail.
    pub fn resume(store: Box<dyn RawStore>, contents: &LogContents, stats: Arc<IoStats>) -> Self {
        BatchLog {
            store,
            stats,
            epoch: contents.base_epoch + contents.records.len() as u64,
            records: contents.records.len() as u64,
            end: contents.valid_len,
            torn: contents.file_len > contents.valid_len,
        }
    }

    /// Commits `bodies` as one record — one write, one `fsync` — and
    /// returns the epoch it establishes. A failed append leaves the log
    /// where it was: the next one writes over whatever it left.
    pub fn append(&mut self, bodies: &[(BatchMode, String)]) -> Result<u64> {
        let body_bytes: usize = bodies.iter().map(|(_, b)| BODY_HEAD + b.len()).sum();
        let len = u32::try_from(RECORD_HEAD + body_bytes)
            .map_err(|_| corrupt(format!("a batch of {body_bytes} bytes is too large to log")))?;
        let epoch = self.epoch + 1;
        let mut rec = Vec::with_capacity(FRAME + len as usize);
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(&[0; 4]);
        rec.extend_from_slice(&epoch.to_le_bytes());
        rec.extend_from_slice(&(bodies.len() as u32).to_le_bytes());
        for (mode, body) in bodies {
            rec.push(*mode as u8);
            rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
            rec.extend_from_slice(body.as_bytes());
        }
        let crc = crc32(&rec[FRAME..]);
        rec[4..8].copy_from_slice(&crc.to_le_bytes());
        if self.torn {
            self.store.set_len(self.end)?;
        }
        self.store.write_at(self.end, &rec)?;
        self.store.sync()?;
        self.torn = false;
        self.stats.record_fsync();
        self.stats.record_wal_appends(1);
        self.stats.record_wal_appended_bytes(rec.len() as u64);
        (self.epoch, self.records, self.end) =
            (epoch, self.records + 1, self.end + rec.len() as u64);
        Ok(epoch)
    }

    /// The epoch the last record established.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records in the log: what a reopen now would replay.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes of the log's valid prefix, header included.
    pub fn len(&self) -> u64 {
        self.end
    }

    /// `true` when the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segment::blockfile::tests::FileKind;
    use crate::store::MemStore;

    fn batch(docs: &[&str]) -> Vec<(BatchMode, String)> {
        docs.iter()
            .map(|d| (BatchMode::Doc, d.to_string()))
            .collect()
    }

    /// A log over a fresh store with three records: two documents, a
    /// wrapper, one document.
    fn sample() -> (MemStore, Vec<LogRecord>) {
        let store = MemStore::new();
        let stats = Arc::new(IoStats::new());
        let mut log = BatchLog::create(Box::new(store.clone()), 7, stats).unwrap();
        let bodies = [
            batch(&["<a><b>v</b></a>", "<a/>"]),
            vec![(BatchMode::Split, "<w><a/><a><c/></a></w>".to_string())],
            batch(&["<é>ü</é>"]),
        ];
        let records = bodies
            .into_iter()
            .map(|bodies| LogRecord {
                epoch: log.append(&bodies).unwrap(),
                bodies,
            })
            .collect();
        (store, records)
    }

    fn read(bytes: Vec<u8>) -> Result<LogContents> {
        BatchLog::read(&MemStore::from_bytes(bytes))
    }

    #[test]
    fn a_log_reads_back_what_was_appended_and_costs_its_bytes() {
        let (store, records) = sample();
        let back = BatchLog::read(&store).unwrap();
        assert_eq!(back.base_epoch, 7);
        assert_eq!(back.records, records);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            [8, 9, 10]
        );
        let len = store.len().unwrap();
        assert_eq!((back.valid_len, back.file_len), (len, len));
        // A record is its bodies and fixed framing: 20 bytes, then 5 a body.
        let bodies: u64 = records[0].bodies.iter().map(|(_, b)| b.len() as u64).sum();
        let stats = Arc::new(IoStats::new());
        let mut log = BatchLog::resume(Box::new(store.clone()), &back, Arc::clone(&stats));
        let before = store.len().unwrap();
        assert_eq!(log.append(&records[0].bodies).unwrap(), 11);
        let io = stats.snapshot();
        assert_eq!(io.wal_appended_bytes, 20 + 5 * 2 + bodies);
        assert_eq!(store.len().unwrap() - before, io.wal_appended_bytes);
        assert_eq!((io.wal_appends, io.fsyncs), (1, 1));
        assert_eq!(
            (log.records(), log.epoch(), log.len()),
            (4, 11, store.len().unwrap())
        );
    }

    /// Wherever the file is cut, what reads back is a prefix of the
    /// records; the cut bytes are cut off by the next append, whose
    /// record then follows the prefix.
    #[test]
    fn a_torn_tail_ends_the_valid_prefix_and_the_next_append_cuts_it_off() {
        let (store, records) = sample();
        let full = store.snapshot();
        for cut in HEADER..full.len() {
            let torn = MemStore::from_bytes(full[..cut].to_vec());
            let back = BatchLog::read(&torn).unwrap();
            assert_eq!(
                back.records[..],
                records[..back.records.len()],
                "cut at {cut}"
            );
            assert!(back.valid_len <= cut as u64);
            let mut log = BatchLog::resume(Box::new(torn.clone()), &back, Arc::new(IoStats::new()));
            let epoch = log.append(&batch(&["<z/>"])).unwrap();
            assert_eq!(epoch, 8 + back.records.len() as u64);
            let again = BatchLog::read(&torn).unwrap();
            assert_eq!(again.records.len(), back.records.len() + 1, "cut at {cut}");
            assert_eq!(again.valid_len, again.file_len);
        }
    }

    /// A record after a torn one is never replayed, even when it is
    /// whole and passes its CRC: nothing acknowledged can lie past a
    /// torn record, and a record whose predecessor is missing is not
    /// a commit of this log.
    #[test]
    fn a_record_after_a_torn_one_is_never_replayed() {
        let (store, records) = sample();
        let bytes = store.snapshot();
        let size = |r: &LogRecord| {
            let bodies: usize = r.bodies.iter().map(|(_, b)| BODY_HEAD + b.len()).sum();
            FRAME + RECORD_HEAD + bodies
        };
        let second = HEADER + size(&records[0]);
        let third = second + size(&records[1]);
        let mut torn = bytes.clone();
        torn[second + FRAME + 3] ^= 1; // a payload byte of record 2
        let back = read(torn).unwrap();
        assert_eq!(back.records, records[..1]);
        assert_eq!(back.valid_len as usize, second);
        // Record 3 pasted where record 2 was: whole, CRC-valid, and the
        // wrong epoch — damage, named.
        let mut spliced = bytes[..second].to_vec();
        spliced.extend_from_slice(&bytes[third..]);
        let err = read(spliced).unwrap_err().to_string();
        assert!(
            err.contains("record 2") && err.contains("epoch 10"),
            "{err}"
        );
    }

    /// Records whose CRC checks but whose payload does not decode are
    /// errors naming their LSN; a header that does not check is not a
    /// log.
    #[test]
    fn a_record_that_does_not_decode_is_an_error_naming_its_lsn() {
        let (store, _) = sample();
        let bytes = store.snapshot();
        let first = HEADER;
        // Rewrites record 1's payload and reseals it.
        type Edit<'e> = &'e dyn Fn(&mut Vec<u8>);
        let reseal = |edit: Edit| {
            let len = u32::from_le_bytes(bytes[first..first + 4].try_into().unwrap()) as usize;
            let mut payload = bytes[first + FRAME..first + FRAME + len].to_vec();
            edit(&mut payload);
            let mut out = bytes[..first].to_vec();
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
            read(out).map(|c| c.records.len())
        };
        let refused: [(&str, Edit); 6] = [
            ("a count the bytes cannot hold", &|p| {
                p[8..12].copy_from_slice(&u32::MAX.to_le_bytes())
            }),
            ("one body fewer than its bytes", &|p| p[8] -= 1),
            ("unknown mode byte 7", &|p| p[12] = 7),
            ("a body past the end", &|p| p[13] = 0xFF),
            ("bytes that are not UTF-8", &|p| p[17] = 0xC3),
            ("an epoch that is not the next one", &|p| p[0] += 1),
        ];
        for (what, edit) in refused {
            let err = reseal(edit).expect_err(what).to_string();
            assert!(err.contains("batch log record 1"), "{what}: {err}");
        }
        assert_eq!(reseal(&|_| ()).unwrap(), 1, "resealed unchanged");
        for at in [0, 8, 15, 16, 19] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(read(bad).is_err(), "header byte {at}");
        }
        assert!(read(bytes[..HEADER - 1].to_vec()).is_err());
    }

    /// A log an older build wrote — magic `PRIXLOG1`, then the base
    /// epoch, a blob length, a CRC over both and the blob (planner
    /// statistics, magic `PLN1`) — is refused by name, with or without
    /// records after it, never read as damage or as an empty log.
    #[test]
    fn a_log_with_the_old_header_is_refused_by_name() {
        let blob = b"PLN1\0\0\0\0";
        let mut old = b"PRIXLOG1".to_vec();
        old.extend_from_slice(&7u64.to_le_bytes());
        old.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        let crc = crc32(&[&old[8..20], &blob[..]].concat());
        old.extend_from_slice(&crc.to_le_bytes());
        old.extend_from_slice(blob);
        let (store, _) = sample();
        let with_records = [old.clone(), store.snapshot()[HEADER..].to_vec()].concat();
        for bytes in [old, with_records] {
            let err = read(bytes).unwrap_err().to_string();
            assert!(
                err.contains("PRIXLOG1") && err.contains("PRIXLOG2") && err.contains("re-index"),
                "{err}"
            );
        }
    }

    /// The log under the hostile-bytes loop: whatever the damage, an
    /// error or a prefix of the records — never a record that was not
    /// appended.
    pub(crate) fn hostile_kind() -> FileKind {
        fn read_all(bytes: Vec<u8>) -> Option<String> {
            let c = read(bytes).ok()?;
            let header = format!("{}\n", c.base_epoch);
            Some(
                c.records
                    .iter()
                    .fold(header, |s, r| s + &format!("{r:?}\n")),
            )
        }
        let (store, _) = sample();
        let good = store.snapshot();
        FileKind {
            name: "hostile_batch_log",
            oracle: read_all(good.clone()).unwrap(),
            resident: HEADER as u64,
            good,
            read_all,
            prefixes: true,
        }
    }
}
