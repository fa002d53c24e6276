//! Raw byte-store abstraction under every file of a database.
//!
//! A database's files — the manifest, the tier files, the batch log —
//! are written through [`RawStore`]s, and the crash-consistency harness
//! substitutes fault-injecting fakes that can lose or tear un-synced
//! writes at a seeded syscall. [`RawStore`] is the narrow waist that
//! makes both work: five operations with POSIX `pread`/`pwrite`
//! semantics plus an explicit durability barrier ([`RawStore::sync`]).
//!
//! Two implementations live here: [`FileStore`] (a real file) and
//! [`MemStore`] (a shared in-memory buffer, used by tests and by
//! recovery to reopen the exact bytes a simulated crash left behind).
//! `prix-testkit` provides the fault-injecting third.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::error::Result;
use crate::sync::Mutex;

/// A flat, random-access byte store with an explicit durability
/// barrier. All methods take `&self`; implementations are internally
/// synchronized.
pub trait RawStore: Send + Sync {
    /// Current length in bytes.
    fn len(&self) -> Result<u64>;

    /// `true` when the store holds no bytes.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates or zero-extends to exactly `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;

    /// Reads exactly `buf.len()` bytes at `offset` (fails on EOF).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes all of `buf` at `offset`, extending the store if the
    /// write lands past the current end. **Not durable** until
    /// [`RawStore::sync`] returns.
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Durability barrier: all previously written bytes (and length
    /// changes) survive a crash once this returns.
    fn sync(&self) -> Result<()>;
}

/// [`RawStore`] over a real file.
pub struct FileStore {
    file: File,
}

impl FileStore {
    /// Creates (truncating) a file store at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore { file })
    }

    /// Opens an existing file for reading and writing.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(FileStore { file })
    }
}

impl RawStore for FileStore {
    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

/// [`RawStore`] over a shared in-memory buffer.
///
/// Clones share the same bytes, so a test can keep a handle, hand a
/// clone to a writer, and inspect (or corrupt) the contents from
/// outside — including "reopening" the same bytes after dropping the
/// original owner, which is how the crash harness models a restart.
#[derive(Clone, Default)]
pub struct MemStore {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-loaded with `bytes` (e.g. a post-crash disk image).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemStore {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A copy of the current contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }
}

impl RawStore for MemStore {
    fn len(&self) -> Result<u64> {
        Ok(self.bytes.lock().len() as u64)
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.bytes.lock().resize(len as usize, 0);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let bytes = self.bytes.lock();
        let start = offset as usize;
        let end = start.checked_add(buf.len()).filter(|&e| e <= bytes.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&bytes[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {} bytes at {} past end {}",
                    buf.len(),
                    offset,
                    bytes.len()
                ),
            )
            .into()),
        }
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut bytes = self.bytes.lock();
        let end = offset as usize + buf.len();
        if end > bytes.len() {
            bytes.resize(end, 0);
        }
        bytes[offset as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn RawStore) {
        assert!(store.is_empty().unwrap());
        store.write_at(0, b"hello").unwrap();
        store.write_at(8, b"world").unwrap(); // hole is zero-filled
        assert_eq!(store.len().unwrap(), 13);
        let mut buf = [0u8; 13];
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello\0\0\0world");
        store.sync().unwrap();
        store.set_len(5).unwrap();
        assert_eq!(store.len().unwrap(), 5);
        let mut buf = [0u8; 6];
        assert!(store.read_at(0, &mut buf).is_err(), "read past EOF fails");
    }

    #[test]
    fn mem_store_roundtrip() {
        roundtrip(&MemStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("prix-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileStore::create(dir.join("t.bin")).unwrap();
        roundtrip(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_store_clones_share_bytes() {
        let a = MemStore::new();
        let b = a.clone();
        a.write_at(0, b"xy").unwrap();
        assert_eq!(b.snapshot(), b"xy");
        let reopened = MemStore::from_bytes(b.snapshot());
        let mut buf = [0u8; 2];
        reopened.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"xy");
    }
}
