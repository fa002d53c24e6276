//! Symbol runs: the names one tier added to the symbol dictionary, in a
//! file next to the tier's segments and value run. Format version 1, on
//! the frame, sequential writer and CRC table of [`super::blockfile`]:
//!
//! ```text
//! +-------------------+-------+-----------+
//! | frame (128 bytes) | names | CRC table |
//! +-------------------+-------+-----------+
//! ```
//!
//! The frame's `doc_base` is the id of the run's first name and its
//! `n_docs` the number of names (a manifest row says the same); two
//! words: where the names end, and the file length. The names are opaque
//! here — the core layer's name-list codec writes and reads them — and
//! are read once, whole, at open, so there are no blocks to cache and no
//! fences: a read checks every byte against the CRC table.

use super::blockfile::{
    check_crc_table, seal, Format, Frame, SeqWriter, SEG_BLOCK, SEG_HEADER_LEN,
};
use crate::error::Result;
use crate::store::RawStore;

/// `kind` byte of a symbol run (its header and its manifest row).
pub const SEG_KIND_SYM: u8 = 3;
/// Symbol-run format version.
pub const SYM_VERSION: u32 = 1;

/// The frame of a symbol run: two words, one kind.
const SYM_FORMAT: Format = Format {
    what: "symbol-run",
    magic: *b"PRIXSYM\0",
    version: SYM_VERSION,
    kind: Some(SEG_KIND_SYM),
    words: 2,
};

/// One symbol run, in memory: the encoded names of symbols
/// `first..first + count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolRun {
    /// Id of the first name.
    pub first: u32,
    /// Number of names.
    pub count: u32,
    /// The names, as the core layer's codec encoded them.
    pub names: Vec<u8>,
}

impl SymbolRun {
    /// The frame of a run whose names end at `crc_off`.
    fn frame(first: u32, count: u32, crc_off: u64) -> Option<Frame> {
        let crc_len = crc_off.div_ceil(SEG_BLOCK as u64).checked_mul(4)?;
        let mut words = [0u64; 12];
        words[..2].copy_from_slice(&[crc_off, crc_off.checked_add(crc_len)?]);
        Some(Frame {
            kind: SEG_KIND_SYM,
            doc_base: first,
            n_docs: count,
            words,
        })
    }

    /// Writes the run to `out`, CRC-sealed, and syncs.
    pub fn write(&self, out: Box<dyn RawStore>) -> Result<()> {
        let crc_off = SEG_HEADER_LEN + self.names.len() as u64;
        let frame = Self::frame(self.first, self.count, crc_off).expect("a run held in memory");
        let mut w = SeqWriter::new(out, SEG_HEADER_LEN);
        w.push(&self.names)?;
        seal(w, &frame.encode(&SYM_FORMAT), crc_off, frame.words[1])
    }

    /// Reads a run: the frame validated against the file, every byte
    /// checked against the CRC table.
    pub fn read(store: &dyn RawStore) -> Result<SymbolRun> {
        let (first, count, crc_off) = Frame::open(store, &SYM_FORMAT, |f| {
            let crc_off = f.words[0];
            let derived = Self::frame(f.doc_base, f.n_docs, crc_off)?;
            (crc_off >= SEG_HEADER_LEN && derived == *f).then_some((f.doc_base, f.n_docs, crc_off))
        })?;
        check_crc_table(store, crc_off)?;
        let mut names = vec![0u8; (crc_off - SEG_HEADER_LEN) as usize];
        store.read_at(SEG_HEADER_LEN, &mut names)?;
        Ok(SymbolRun {
            first,
            count,
            names,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::blockfile::tests::{patch_header, FileKind};
    use super::*;
    use crate::error::StorageError;
    use crate::store::MemStore;

    fn sample_run(bytes: usize) -> SymbolRun {
        SymbolRun {
            first: 40,
            count: 1000,
            names: (0..bytes).map(|i| (i * 31 % 251) as u8).collect(),
        }
    }

    fn image(run: &SymbolRun) -> Vec<u8> {
        let store = MemStore::new();
        run.write(Box::new(store.clone())).unwrap();
        store.snapshot()
    }

    #[test]
    fn symbol_run_roundtrips_and_costs_what_it_holds() {
        // No names, a few, exactly to a block boundary, several blocks.
        for bytes in [
            0,
            9,
            SEG_BLOCK - SEG_HEADER_LEN as usize,
            3 * SEG_BLOCK + 17,
        ] {
            let run = sample_run(bytes);
            let file = image(&run);
            let blocks = (SEG_HEADER_LEN as usize + bytes).div_ceil(SEG_BLOCK);
            assert_eq!(file.len(), SEG_HEADER_LEN as usize + bytes + 4 * blocks);
            let back = SymbolRun::read(&MemStore::from_bytes(file)).unwrap();
            assert_eq!(back, run, "{bytes} bytes of names");
        }
    }

    #[test]
    fn symbol_run_read_rejects_an_inconsistent_frame() {
        let good = image(&sample_run(5000));
        let read = |bytes: Vec<u8>| SymbolRun::read(&MemStore::from_bytes(bytes));
        assert_eq!(
            read(patch_header(&good, 24, 8, |v| v)).unwrap(),
            sample_run(5000)
        );
        // Neither word can move alone, nor an unused one be set.
        for at in [24, 32, 40, 112] {
            let perturb: [fn(u64) -> u64; 3] = [|v| v + 1, |v| v.wrapping_sub(1), |_| u64::MAX / 2];
            for f in perturb {
                assert!(
                    matches!(
                        read(patch_header(&good, at, 8, f)),
                        Err(StorageError::Corrupt { .. })
                    ),
                    "word at {at}"
                );
            }
        }
        // The run of another id range is a well-formed file: the row
        // check above this layer tells them apart.
        assert_eq!(
            read(patch_header(&good, 16, 4, |v| v + 1)).unwrap().first,
            41
        );
        // Magic, version, kind.
        for (at, byte) in [(0, b'X'), (8, 2), (12, 2)] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert!(read(patch_header(&bad, 24, 8, |v| v)).is_err(), "byte {at}");
        }
    }

    /// The symbol run under [`FileKind`]'s hostile-bytes loop: the one
    /// read there is.
    pub(crate) fn hostile_kind() -> FileKind {
        fn read_all(bytes: Vec<u8>) -> Option<String> {
            SymbolRun::read(&MemStore::from_bytes(bytes))
                .ok()
                .map(|run| format!("{run:?}"))
        }
        let run = sample_run(2 * SEG_BLOCK + 300);
        FileKind {
            name: "hostile_symbol_run",
            good: image(&run),
            resident: SEG_HEADER_LEN,
            oracle: format!("{run:?}"),
            read_all,
            prefixes: false,
        }
    }
}
