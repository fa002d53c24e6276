//! Heap file for variable-length records.
//!
//! PRIX stores, per document, its NPS (postorder number array) and its
//! leaf-node list (§4.3); the TwigStack baseline stores per-tag
//! positional streams. Both are variable-length blobs addressed by a
//! stable [`RecordId`] and read through the buffer pool so their page
//! fetches count toward the Disk-IO metric.
//!
//! Small records are packed into slotted data pages; records larger than
//! [`OVERFLOW_THRESHOLD`] are stored in a chain of dedicated overflow
//! pages.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::pager::{PageId, NIL_PAGE, PAGE_SIZE};

/// Identifier of a record: `page << 16 | slot`. Slot `0xFFFF` marks an
/// overflow-chain record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl RecordId {
    fn new(page: PageId, slot: u16) -> Self {
        RecordId(page << 16 | slot as u64)
    }

    fn page(self) -> PageId {
        self.0 >> 16
    }

    fn slot(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

const TYPE_DATA: u8 = 3;
const TYPE_OVERFLOW: u8 = 4;
const OVERFLOW_SLOT: u16 = 0xFFFF;

// Data page: [0] type, [1..3] u16 nslots, [3..5] u16 cell_start,
// slot array of u16 offsets from byte 5; cells grow from the page end,
// each cell = u16 len + bytes.
const DATA_HDR: usize = 5;

// Overflow page: [0] type, [1..9] u64 next, [9..11] u16 chunk_len, data.
const OVF_HDR: usize = 11;
const OVF_CAP: usize = PAGE_SIZE - OVF_HDR;

/// Records at most this large go into shared data pages.
pub const OVERFLOW_THRESHOLD: usize = PAGE_SIZE / 2;

/// An append-only heap of byte records over a shared [`BufferPool`].
///
/// `Clone` duplicates the handle, sharing pages: a record stays
/// readable by id through either handle, and no append moves it.
/// Appending through more than one clone of the same store corrupts the
/// shared fill page, so a store has one appender (the engine's delta
/// shares one handle under a lock).
#[derive(Clone)]
pub struct RecordStore {
    pool: Arc<BufferPool>,
    /// Data page currently being filled.
    current: PageId,
}

impl RecordStore {
    /// Creates an empty store.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let current = pool.allocate_page()?;
        pool.with_page_mut(current, init_data_page)?;
        Ok(RecordStore { pool, current })
    }

    /// Appends `data`, returning its id.
    pub fn append(&mut self, data: &[u8]) -> Result<RecordId> {
        if data.len() > OVERFLOW_THRESHOLD {
            return self.append_overflow(data);
        }
        let need = 2 + data.len() + 2; // cell + slot entry
        if self.pool.with_page(self.current, |p| data_free(p) < need)? {
            self.current = self.pool.allocate_page()?;
            self.pool.with_page_mut(self.current, init_data_page)?;
        }
        let page = self.current;
        let slot = self.pool.with_page_mut(page, |p| {
            let n = u16::from_le_bytes([p[1], p[2]]) as usize;
            let cell_start = u16::from_le_bytes([p[3], p[4]]) as usize;
            let start = cell_start - (2 + data.len());
            p[start..start + 2].copy_from_slice(&(data.len() as u16).to_le_bytes());
            p[start + 2..start + 2 + data.len()].copy_from_slice(data);
            let off = DATA_HDR + 2 * n;
            p[off..off + 2].copy_from_slice(&(start as u16).to_le_bytes());
            p[1..3].copy_from_slice(&((n + 1) as u16).to_le_bytes());
            p[3..5].copy_from_slice(&(start as u16).to_le_bytes());
            n as u16
        })?;
        Ok(RecordId::new(page, slot))
    }

    fn append_overflow(&mut self, data: &[u8]) -> Result<RecordId> {
        let chunks: Vec<&[u8]> = data.chunks(OVF_CAP).collect();
        let mut pages = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            pages.push(self.pool.allocate_page()?);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let next = pages.get(i + 1).copied().unwrap_or(NIL_PAGE);
            self.pool.with_page_mut(pages[i], |p| {
                p[0] = TYPE_OVERFLOW;
                p[1..9].copy_from_slice(&next.to_le_bytes());
                p[9..11].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                p[OVF_HDR..OVF_HDR + chunk.len()].copy_from_slice(chunk);
            })?;
        }
        Ok(RecordId::new(pages[0], OVERFLOW_SLOT))
    }

    /// Reads the record back.
    pub fn read(&self, id: RecordId) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_into(id, &mut out).map(|()| out)
    }

    /// [`RecordStore::read`] written into `out`, whose contents it
    /// replaces.
    pub fn read_into(&self, id: RecordId, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        if id.slot() == OVERFLOW_SLOT {
            return self.read_overflow(id.page(), out);
        }
        self.pool.with_page(id.page(), |p| {
            if p[0] != TYPE_DATA {
                return Err(StorageError::Corrupt {
                    page: id.page(),
                    reason: format!("expected data page, found type {}", p[0]),
                });
            }
            let n = u16::from_le_bytes([p[1], p[2]]) as usize;
            let slot = id.slot() as usize;
            if slot >= n {
                return Err(StorageError::Corrupt {
                    page: id.page(),
                    reason: format!("slot {slot} out of range ({n} slots)"),
                });
            }
            let off = DATA_HDR + 2 * slot;
            let start = u16::from_le_bytes([p[off], p[off + 1]]) as usize;
            let len = u16::from_le_bytes([p[start], p[start + 1]]) as usize;
            out.extend_from_slice(&p[start + 2..start + 2 + len]);
            Ok(())
        })?
    }

    fn read_overflow(&self, mut page: PageId, out: &mut Vec<u8>) -> Result<()> {
        while page != NIL_PAGE {
            page = self.pool.with_page(page, |p| {
                if p[0] != TYPE_OVERFLOW {
                    return Err(StorageError::Corrupt {
                        page,
                        reason: format!("expected overflow page, found type {}", p[0]),
                    });
                }
                let next = u64::from_le_bytes(p[1..9].try_into().unwrap());
                let len = u16::from_le_bytes([p[9], p[10]]) as usize;
                out.extend_from_slice(&p[OVF_HDR..OVF_HDR + len]);
                Ok(next)
            })??;
        }
        Ok(())
    }
}

fn init_data_page(p: &mut [u8; PAGE_SIZE]) {
    p.fill(0);
    p[0] = TYPE_DATA;
    p[3..5].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
}

fn data_free(p: &[u8; PAGE_SIZE]) -> usize {
    let n = u16::from_le_bytes([p[1], p[2]]) as usize;
    let cell_start = u16::from_le_bytes([p[3], p[4]]) as usize;
    cell_start - (DATA_HDR + 2 * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn store() -> RecordStore {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 32));
        RecordStore::create(pool).unwrap()
    }

    #[test]
    fn small_records_roundtrip() {
        let mut s = store();
        let a = s.append(b"hello").unwrap();
        let b = s.append(b"").unwrap();
        let c = s.append(&[7u8; 100]).unwrap();
        assert_eq!(s.read(a).unwrap(), b"hello");
        assert_eq!(s.read(b).unwrap(), b"");
        assert_eq!(s.read(c).unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn many_records_spill_to_new_pages() {
        let mut s = store();
        let ids: Vec<RecordId> = (0..2000u32)
            .map(|i| s.append(&i.to_le_bytes()).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(s.read(*id).unwrap(), (i as u32).to_le_bytes());
        }
        // 2000 records of 6+2 bytes cannot fit in one 8K page.
        let pages: std::collections::HashSet<u64> = ids.iter().map(|r| r.page()).collect();
        assert!(pages.len() > 1);
    }

    #[test]
    fn large_record_uses_overflow_chain() {
        let mut s = store();
        let data: Vec<u8> = (0..40_000usize).map(|i| (i % 251) as u8).collect();
        let id = s.append(&data).unwrap();
        assert_eq!(id.slot(), OVERFLOW_SLOT);
        assert_eq!(s.read(id).unwrap(), data);
    }

    #[test]
    fn boundary_sizes() {
        let mut s = store();
        for sz in [
            OVERFLOW_THRESHOLD - 1,
            OVERFLOW_THRESHOLD,
            OVERFLOW_THRESHOLD + 1,
            OVF_CAP,
            OVF_CAP + 1,
            2 * OVF_CAP,
        ] {
            let data = vec![0xA5u8; sz];
            let id = s.append(&data).unwrap();
            assert_eq!(s.read(id).unwrap(), data, "size {sz}");
        }
    }

    #[test]
    fn interleaved_small_and_large() {
        let mut s = store();
        let mut ids = Vec::new();
        for i in 0..50usize {
            if i % 7 == 0 {
                ids.push((s.append(&vec![i as u8; 9000]).unwrap(), 9000, i as u8));
            } else {
                ids.push((s.append(&vec![i as u8; i]).unwrap(), i, i as u8));
            }
        }
        for (id, len, fill) in ids {
            assert_eq!(s.read(id).unwrap(), vec![fill; len]);
        }
    }

    #[test]
    fn bad_slot_is_corrupt() {
        let mut s = store();
        let id = s.append(b"x").unwrap();
        let bogus = RecordId::new(id.page(), 99);
        assert!(matches!(s.read(bogus), Err(StorageError::Corrupt { .. })));
    }
}
