//! Segment environments: where a segmented database keeps its files.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::blockfile::corrupt;
use super::sort::TempFactory;
use crate::error::Result;
use crate::store::{FileStore, MemStore, RawStore};
use crate::sync::Mutex;

/// Where a segmented database keeps its files: one store per suffix
/// (`""` = the database itself, `.seg` = the manifest, `.g1.rp.seg` =
/// a segment, ...) plus anonymous scratch stores for sort spills.
/// Production uses [`FileSegEnv`]; tests use [`MemSegEnv`] or a
/// fault-injecting wrapper.
pub trait SegmentEnv: Send + Sync {
    /// Creates (truncating) the store for `suffix`.
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>>;
    /// Opens the existing store for `suffix`.
    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>>;
    /// Whether a store for `suffix` exists.
    fn exists(&self, suffix: &str) -> Result<bool>;
    /// Removes the store for `suffix` (idempotent).
    fn remove(&self, suffix: &str) -> Result<()>;
    /// A fresh anonymous scratch store for sort spills.
    fn temp(&self) -> Result<Box<dyn RawStore>>;
}

/// [`SegmentEnv`] over real files: suffix `s` lives at `<base><s>`,
/// scratch stores are unlinked-on-open temp files next to the database.
pub struct FileSegEnv {
    base: std::path::PathBuf,
    tmp_seq: AtomicU64,
}

impl FileSegEnv {
    /// An environment rooted at database path `base`.
    pub fn new<P: Into<std::path::PathBuf>>(base: P) -> Self {
        FileSegEnv {
            base: base.into(),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The path for `suffix`.
    pub fn path(&self, suffix: &str) -> std::path::PathBuf {
        if suffix.is_empty() {
            self.base.clone()
        } else {
            let mut os = self.base.clone().into_os_string();
            os.push(suffix);
            std::path::PathBuf::from(os)
        }
    }
}

impl SegmentEnv for FileSegEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(FileStore::create(self.path(suffix))?))
    }

    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(FileStore::open(self.path(suffix))?))
    }

    fn exists(&self, suffix: &str) -> Result<bool> {
        Ok(self.path(suffix).exists())
    }

    fn remove(&self, suffix: &str) -> Result<()> {
        match std::fs::remove_file(self.path(suffix)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn temp(&self) -> Result<Box<dyn RawStore>> {
        let n = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.path(&format!(".tmp{}-{n}", std::process::id()));
        let store = FileStore::create(&path)?;
        // Unlink immediately: the open handle keeps the bytes alive and
        // the kernel reclaims them when the sorter drops the store.
        let _ = std::fs::remove_file(&path);
        Ok(Box::new(store))
    }
}

/// In-memory [`SegmentEnv`] for tests: suffixes map to shared
/// [`MemStore`]s, so "reopening" sees the same bytes.
#[derive(Default)]
pub struct MemSegEnv {
    files: Mutex<HashMap<String, MemStore>>,
}

impl MemSegEnv {
    /// An empty in-memory environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct handle to the named store (tests corrupt bytes this way).
    pub fn store(&self, suffix: &str) -> Option<MemStore> {
        self.files.lock().get(suffix).cloned()
    }
}

impl SegmentEnv for MemSegEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        let store = MemStore::new();
        self.files.lock().insert(suffix.to_string(), store.clone());
        Ok(Box::new(store))
    }

    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        self.files
            .lock()
            .get(suffix)
            .cloned()
            .map(|s| Box::new(s) as Box<dyn RawStore>)
            .ok_or_else(|| corrupt(format!("no such store: {suffix:?}")))
    }

    fn exists(&self, suffix: &str) -> Result<bool> {
        Ok(self.files.lock().contains_key(suffix))
    }

    fn remove(&self, suffix: &str) -> Result<()> {
        self.files.lock().remove(suffix);
        Ok(())
    }

    fn temp(&self) -> Result<Box<dyn RawStore>> {
        Ok(Box::new(MemStore::new()))
    }
}

/// A temp factory over any shared [`SegmentEnv`].
pub fn env_temp_factory(env: &Arc<dyn SegmentEnv>) -> TempFactory {
    let env = Arc::clone(env);
    Box::new(move || env.temp())
}
