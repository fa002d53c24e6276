//! The manifest: the atomic commit point for the whole index
//! lifecycle. Double-slot, generation-stamped, CRC'd — a crash anywhere
//! during a bulk build or compaction leaves the previous manifest
//! serving the previous files.

use super::blockfile::corrupt;
use crate::crc::crc32;
use crate::error::Result;
use crate::store::RawStore;

/// One segment, value run or symbol run referenced by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSegment {
    /// Kind byte: [`super::SEG_KIND_RP`] or [`super::SEG_KIND_EP`] for a
    /// structural segment, [`super::SEG_KIND_VX`] for a tier's value
    /// run, [`super::SEG_KIND_SYM`] for the names a tier interned.
    pub kind: u8,
    /// File suffix relative to the database path (e.g. `.g1.rp.seg`).
    pub suffix: String,
    /// First global document id in the segment (a symbol run: the id of
    /// its first name).
    pub doc_base: u32,
    /// Number of documents in the segment (a symbol run: of names).
    pub n_docs: u32,
}

/// The atomic commit point of a database: names the live generation's
/// batch log and every live tier file. Two fixed slots;
/// a write goes to slot `generation % 2` and a torn write leaves the
/// other slot's older-but-valid manifest in charge, so publishing a
/// bulk build or compaction is a single `write + fsync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotone generation counter (slot selector).
    pub generation: u64,
    /// Suffix of the live generation's batch log (`.g2.log` for
    /// generation 2; see `crate::wal`).
    pub log_suffix: String,
    /// Live files, ascending by `doc_base` within each kind.
    pub segments: Vec<ManifestSegment>,
}

/// Byte offset of manifest slot `i` (`i` in 0..2); a slot is as long as
/// the distance between them.
const MANIFEST_SLOT: [u64; 2] = [0, 16384];
const MANIFEST_MAGIC: u32 = 0x5052_4D4E; // "PRMN"
/// Bytes of a slot before its payload: generation, length, CRC-32.
const SLOT_HEAD: usize = 16;
/// The least a row takes: kind, an empty suffix's length, doc base,
/// document count.
const MIN_ROW_LEN: usize = 13;

/// Splits the next `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if r.len() < n {
        return None;
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Some(head)
}

fn take_u32(r: &mut &[u8]) -> Option<u32> {
    take(r, 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

/// A `u32` length, then that many bytes of UTF-8.
fn take_str(r: &mut &[u8]) -> Option<String> {
    let len = take_u32(r)? as usize;
    String::from_utf8(take(r, len)?.to_vec()).ok()
}

impl Manifest {
    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        p.extend_from_slice(&(self.log_suffix.len() as u32).to_le_bytes());
        p.extend_from_slice(self.log_suffix.as_bytes());
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

    /// Writes this manifest to its generation's slot and syncs. A
    /// manifest too long for a slot is an error and nothing is written:
    /// the previous generation keeps serving.
    pub fn write_to(&self, store: &dyn RawStore) -> Result<()> {
        let payload = self.payload();
        let mut frame = Vec::with_capacity(payload.len() + SLOT_HEAD);
        frame.extend_from_slice(&self.generation.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if frame.len() as u64 > MANIFEST_SLOT[1] {
            return Err(corrupt(format!(
                "manifest generation {} with {} row(s) takes {} bytes, its slot holds {}",
                self.generation,
                self.segments.len(),
                frame.len(),
                MANIFEST_SLOT[1]
            )));
        }
        store.write_at(MANIFEST_SLOT[(self.generation % 2) as usize], &frame)?;
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
        if len < slot + SLOT_HEAD as u64 {
            return None;
        }
        let mut head = [0u8; SLOT_HEAD];
        store.read_at(slot, &mut head).ok()?;
        let generation = u64::from_le_bytes(head[0..8].try_into().unwrap());
        let plen = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(head[12..16].try_into().unwrap());
        let end = slot + (SLOT_HEAD + plen) as u64;
        if plen < 8 || plen as u64 > MANIFEST_SLOT[1] || end > len {
            return None;
        }
        let mut payload = vec![0u8; plen];
        store.read_at(slot + SLOT_HEAD as u64, &mut payload).ok()?;
        if crc32(&payload) != crc {
            return None;
        }
        let mut r = &payload[..];
        if take_u32(&mut r)? != MANIFEST_MAGIC {
            return None;
        }
        let log_suffix = take_str(&mut r)?;
        // The count is the file's word: size nothing by it beyond what
        // the rest of the payload could hold.
        let n = take_u32(&mut r)? as usize;
        if n > r.len() / MIN_ROW_LEN {
            return None;
        }
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            segments.push(ManifestSegment {
                kind: take(&mut r, 1)?[0],
                suffix: take_str(&mut r)?,
                doc_base: take_u32(&mut r)?,
                n_docs: take_u32(&mut r)?,
            });
        }
        r.is_empty().then_some(Manifest {
            generation,
            log_suffix,
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

#[cfg(test)]
mod tests {
    use super::super::{SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_VX};
    use super::*;
    use crate::store::MemStore;

    fn row(kind: u8, suffix: &str, doc_base: u32, n_docs: u32) -> ManifestSegment {
        ManifestSegment {
            kind,
            suffix: suffix.into(),
            doc_base,
            n_docs,
        }
    }

    #[test]
    fn manifest_roundtrips_and_survives_torn_writes() {
        let store = MemStore::new();
        assert!(Manifest::read_from(&store).unwrap().is_none());
        let m1 = Manifest {
            generation: 1,
            log_suffix: ".g1.log".into(),
            segments: vec![row(SEG_KIND_RP, ".g1.rp.seg", 0, 10)],
        };
        m1.write_to(&store).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m1);
        let mut m2 = m1.clone();
        m2.generation = 2;
        m2.log_suffix = ".g2.log".into();
        m2.write_to(&store).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m2);
        // Tear generation 2's slot (slot 0): generation 1 takes over.
        store.write_at(20, &[0xFF; 8]).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m1);
    }

    /// Plants `payload` as generation 3 (slot 1) with a valid CRC.
    fn plant(store: &MemStore, payload: &[u8]) {
        let mut frame = 3u64.to_le_bytes().to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        store.write_at(MANIFEST_SLOT[1], &frame).unwrap();
    }

    #[test]
    fn hostile_row_count_and_trailing_bytes_are_not_a_manifest() {
        let store = MemStore::new();
        let m2 = Manifest {
            generation: 2,
            log_suffix: ".g2.log".into(),
            segments: vec![
                row(SEG_KIND_RP, ".g2.rp.seg", 0, 4),
                row(SEG_KIND_EP, ".g2.ep.seg", 0, 4),
                row(SEG_KIND_VX, ".g2.vx.seg", 0, 4),
            ],
        };
        m2.write_to(&store).unwrap();
        let good = m2.payload();
        // A CRC-valid newer slot is believed...
        plant(&store, &good);
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap().generation, 3);
        // ...unless its row count is more than its bytes could hold —
        // which must cost no allocation (0xFFFF_FFFF rows would be
        // ~170 GB), however the rest reads —
        let count_at = 4 + 4 + m2.log_suffix.len();
        for n in [4u32, 1 << 20, u32::MAX] {
            let mut bad = good.clone();
            bad[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
            plant(&store, &bad);
            assert_eq!(
                Manifest::read_from(&store).unwrap().unwrap(),
                m2,
                "{n} rows"
            );
        }
        // — or fewer (bytes left over after its last row), or anything
        // trails the rows.
        let mut bad = good.clone();
        bad[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        plant(&store, &bad);
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m2);
        let mut bad = good.clone();
        bad.push(0);
        plant(&store, &bad);
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), m2);
    }

    #[test]
    fn manifest_over_its_slot_is_an_error_and_writes_nothing() {
        let tiers = |n: u32| Manifest {
            generation: 1 + u64::from(n),
            log_suffix: format!(".g{n}.log"),
            segments: (1..=n)
                .flat_map(|g| {
                    [
                        (SEG_KIND_RP, "rp"),
                        (SEG_KIND_EP, "ep"),
                        (SEG_KIND_VX, "vx"),
                    ]
                    .map(|(kind, name)| row(kind, &format!(".g{g}.{name}.seg"), g * 1024, 1024))
                })
                .collect(),
        };
        // The most tiers whose rows fit a slot, then one row more.
        let fits = (1..)
            .take_while(|&n| (tiers(n).payload().len() + SLOT_HEAD) as u64 <= MANIFEST_SLOT[1])
            .last()
            .unwrap();
        assert!((150..300).contains(&fits), "{fits} tiers fit a slot");
        let store = MemStore::new();
        let old = tiers(fits);
        old.write_to(&store).unwrap();
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), old);
        let before = store.snapshot();
        let mut over = tiers(fits);
        over.generation += 1;
        while (over.payload().len() + SLOT_HEAD) as u64 <= MANIFEST_SLOT[1] {
            over.segments.push(row(SEG_KIND_RP, ".gN.rp.seg", 0, 1));
        }
        let err = over.write_to(&store).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{} row(s)", over.segments.len())) && err.contains("16384"),
            "unhelpful refusal: {err}"
        );
        assert_eq!(store.snapshot(), before, "a refused manifest wrote bytes");
        assert_eq!(Manifest::read_from(&store).unwrap().unwrap(), old);
    }
}
