//! Fault injection for the storage layer: a power-loss simulator
//! behind the [`RawStore`] trait.
//!
//! [`FaultStore`] wraps an in-memory file in the semantics that make
//! crash testing honest:
//!
//! * writes land in a **pending** set until [`RawStore::sync`] — only a
//!   sync moves them to the durable image;
//! * a shared [`FaultInjector`] counts syscalls across *all* stores of
//!   a database (manifest, tier files, batch log) and kills the
//!   process model at a seeded point: every later operation fails like
//!   a killed process's would;
//! * at the crash, each pending (un-synced) write survives with
//!   probability ½ — the kernel may have written any subset, in any
//!   order — and the in-flight operation itself is mangled according
//!   to the [`FaultKind`]: cut short, torn at 512-byte sector
//!   granularity, or (for [`FaultKind::DroppedFsync`]) an fsync that
//!   never made it;
//! * [`FaultStore::durable_bytes`] then reconstructs what the platter
//!   actually holds, which the crash harness reopens through
//!   [`prix_storage::MemStore`] to exercise real recovery.
//!
//! Everything is driven by seeds, so a failing iteration replays
//! exactly, following the same convention as the property harness.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prix_storage::error::{Result, StorageError};
use prix_storage::{MemSegEnv, RawStore, SegmentEnv};

use crate::TestRng;

/// What kind of failure the in-flight operation suffers at the crash
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The crashing `write` persists only a prefix of its bytes.
    ShortWrite,
    /// The crashing `write` persists a random subset of its 512-byte
    /// sectors (the classic torn page).
    TornSector,
    /// The crash lands on an `fsync`: it fails, and nothing pending
    /// was made durable by it.
    DroppedFsync,
}

impl FaultKind {
    /// All kinds, for seed-driven selection.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::ShortWrite,
        FaultKind::TornSector,
        FaultKind::DroppedFsync,
    ];

    /// Whether this kind's trigger counts write-class syscalls
    /// (`write_at`/`set_len`) or sync-class ones.
    fn counts_writes(self) -> bool {
        !matches!(self, FaultKind::DroppedFsync)
    }
}

struct InjectorState {
    kind: FaultKind,
    /// Matching syscalls remaining before the crash; `None` never
    /// crashes.
    budget: Option<u64>,
    crashed: bool,
    crash_seed: u64,
    ops_seen: u64,
}

/// The shared syscall clock. One injector is shared by every
/// [`FaultStore`] of a simulated database, so the kill point is a
/// global instruction count, not a per-file one.
#[derive(Clone)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// An injector that crashes after `kill_after` matching syscalls
    /// (0 = the very first one). `crash_seed` drives which pending
    /// writes survive.
    pub fn armed(kind: FaultKind, kill_after: u64, crash_seed: u64) -> Self {
        FaultInjector {
            state: Arc::new(Mutex::new(InjectorState {
                kind,
                budget: Some(kill_after),
                crashed: false,
                crash_seed,
                ops_seen: 0,
            })),
        }
    }

    /// An injector that never fires (baseline runs and op counting).
    pub fn unarmed() -> Self {
        FaultInjector {
            state: Arc::new(Mutex::new(InjectorState {
                kind: FaultKind::ShortWrite,
                budget: None,
                crashed: false,
                crash_seed: 0,
                ops_seen: 0,
            })),
        }
    }

    /// Arms (or re-arms) an injector in place: the crash-consistency
    /// harness builds a known-good base image through an unarmed
    /// injector, then arms the very same stores for the mutation phase.
    pub fn arm(&self, kind: FaultKind, kill_after: u64, crash_seed: u64) {
        let mut s = self.state.lock().unwrap();
        assert!(!s.crashed, "cannot re-arm after the crash fired");
        s.kind = kind;
        s.budget = Some(kill_after);
        s.crash_seed = crash_seed;
    }

    /// `true` once the simulated process has been killed.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// The fault kind this injector is armed with.
    pub fn kind(&self) -> FaultKind {
        self.state.lock().unwrap().kind
    }

    /// Matching syscalls observed so far (for sizing kill points).
    pub fn ops_seen(&self) -> u64 {
        self.state.lock().unwrap().ops_seen
    }

    /// Ticks the clock for a write-class or sync-class syscall;
    /// returns `true` when this very operation is the crash point.
    fn tick(&self, is_sync: bool) -> bool {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return false; // callers check crashed() first
        }
        if s.kind.counts_writes() == is_sync {
            return false; // not the op class this kind triggers on
        }
        s.ops_seen += 1;
        match &mut s.budget {
            Some(0) => {
                s.crashed = true;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        }
    }

    fn crash_params(&self) -> (FaultKind, u64) {
        let s = self.state.lock().unwrap();
        (s.kind, s.crash_seed)
    }
}

fn killed() -> StorageError {
    StorageError::Io(io::Error::other("injected crash: process is dead"))
}

enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

struct FileState {
    /// Image as of the last successful sync — what survives for sure.
    durable: Vec<u8>,
    /// Image including un-synced writes — what reads see pre-crash.
    current: Vec<u8>,
    /// Un-synced operations in order.
    pending: Vec<PendingOp>,
    /// Index into `pending` of the operation in flight at the crash.
    crashing: Option<usize>,
}

impl FileState {
    fn apply(image: &mut Vec<u8>, op: &PendingOp) {
        match op {
            PendingOp::Write { offset, data } => {
                let end = *offset as usize + data.len();
                if end > image.len() {
                    image.resize(end, 0);
                }
                image[*offset as usize..end].copy_from_slice(data);
            }
            PendingOp::SetLen(len) => image.resize(*len as usize, 0),
        }
    }
}

/// A fault-injectable [`RawStore`]. Clones share the same file, so a
/// test keeps one handle for post-crash inspection while a writer owns
/// another.
#[derive(Clone)]
pub struct FaultStore {
    state: Arc<Mutex<FileState>>,
    injector: FaultInjector,
    /// Decorrelates the survival coin flips of sibling stores that
    /// share one injector and crash seed.
    salt: u64,
}

impl FaultStore {
    /// An empty file governed by `injector`. Give each store of a
    /// database a distinct `salt` so their crash outcomes are
    /// independent draws from the one seed.
    pub fn new(injector: &FaultInjector, salt: u64) -> Self {
        FaultStore {
            state: Arc::new(Mutex::new(FileState {
                durable: Vec::new(),
                current: Vec::new(),
                pending: Vec::new(),
                crashing: None,
            })),
            injector: injector.clone(),
            salt,
        }
    }

    /// What the disk actually holds after the crash: the durable image
    /// plus a seed-chosen subset of the pending operations, with the
    /// in-flight one mangled per the injector's [`FaultKind`]. Before
    /// a crash this is simply the current image.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let s = self.state.lock().unwrap();
        if !self.injector.crashed() {
            return s.current.clone();
        }
        let (kind, crash_seed) = self.injector.crash_params();
        let mut rng =
            TestRng::from_seed(crash_seed ^ self.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut image = s.durable.clone();
        for (i, op) in s.pending.iter().enumerate() {
            let in_flight = s.crashing == Some(i);
            if in_flight {
                // The crashing operation is mangled per kind.
                match (kind, op) {
                    (FaultKind::ShortWrite, PendingOp::Write { offset, data }) => {
                        let keep = rng.below(data.len() as u64 + 1) as usize;
                        FileState::apply(
                            &mut image,
                            &PendingOp::Write {
                                offset: *offset,
                                data: data[..keep].to_vec(),
                            },
                        );
                    }
                    (FaultKind::TornSector, PendingOp::Write { offset, data }) => {
                        for (si, sector) in data.chunks(512).enumerate() {
                            if rng.chance(0.5) {
                                FileState::apply(
                                    &mut image,
                                    &PendingOp::Write {
                                        offset: *offset + si as u64 * 512,
                                        data: sector.to_vec(),
                                    },
                                );
                            }
                        }
                    }
                    // A crashing set_len (or a dropped fsync, which has
                    // no in-flight write) persists or not like any
                    // other pending op.
                    _ => {
                        if rng.chance(0.5) {
                            FileState::apply(&mut image, op);
                        }
                    }
                }
            } else if rng.chance(0.5) {
                // The kernel may have flushed any subset of the
                // un-synced writes before the power went out.
                FileState::apply(&mut image, op);
            }
        }
        image
    }
}

impl RawStore for FaultStore {
    fn len(&self) -> Result<u64> {
        if self.injector.crashed() {
            return Err(killed());
        }
        Ok(self.state.lock().unwrap().current.len() as u64)
    }

    fn set_len(&self, len: u64) -> Result<()> {
        if self.injector.crashed() {
            return Err(killed());
        }
        let mut s = self.state.lock().unwrap();
        let op = PendingOp::SetLen(len);
        if self.injector.tick(false) {
            s.crashing = Some(s.pending.len());
            s.pending.push(op);
            return Err(killed());
        }
        FileState::apply(&mut s.current, &op);
        s.pending.push(op);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if self.injector.crashed() {
            return Err(killed());
        }
        let s = self.state.lock().unwrap();
        let start = offset as usize;
        let end = start + buf.len();
        if end > s.current.len() {
            return Err(StorageError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read past end ({end} > {})", s.current.len()),
            )));
        }
        buf.copy_from_slice(&s.current[start..end]);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        if self.injector.crashed() {
            return Err(killed());
        }
        let mut s = self.state.lock().unwrap();
        let op = PendingOp::Write {
            offset,
            data: buf.to_vec(),
        };
        if self.injector.tick(false) {
            s.crashing = Some(s.pending.len());
            s.pending.push(op);
            return Err(killed());
        }
        FileState::apply(&mut s.current, &op);
        s.pending.push(op);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        if self.injector.crashed() {
            return Err(killed());
        }
        let mut s = self.state.lock().unwrap();
        if self.injector.tick(true) {
            // DroppedFsync: the barrier failed; nothing pending became
            // durable through it.
            return Err(killed());
        }
        s.durable = s.current.clone();
        s.pending.clear();
        s.crashing = None;
        Ok(())
    }
}

/// A [`SegmentEnv`] over [`FaultStore`]s sharing one injector, so a
/// kill point lands anywhere in the segment lifecycle's syscall
/// stream — run spills, segment writes, log appends, manifest
/// slots. Unlinks are modeled as immediately durable; every `remove`
/// the engine issues happens after its manifest commit point, so the
/// simplification cannot hide an inconsistent window.
pub struct FaultSegEnv {
    inj: FaultInjector,
    files: Mutex<HashMap<String, FaultStore>>,
    salt: AtomicU64,
}

impl FaultSegEnv {
    /// An empty environment governed by `inj`.
    pub fn new(inj: &FaultInjector) -> Self {
        FaultSegEnv {
            inj: inj.clone(),
            files: Mutex::new(HashMap::new()),
            salt: AtomicU64::new(1),
        }
    }

    fn next_salt(&self) -> u64 {
        self.salt.fetch_add(1, Ordering::Relaxed)
    }

    /// What the platter holds after the crash, as a reopenable
    /// in-memory environment: each surviving file's durable image.
    pub fn durable_env(&self) -> Arc<MemSegEnv> {
        let env = MemSegEnv::new();
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        for (suffix, store) in files.iter() {
            let bytes = store.durable_bytes();
            let dst = env.create(suffix).unwrap();
            if !bytes.is_empty() {
                dst.write_at(0, &bytes).unwrap();
                dst.sync().unwrap();
            }
        }
        Arc::new(env)
    }
}

impl SegmentEnv for FaultSegEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        if self.inj.crashed() {
            return Err(killed());
        }
        let store = FaultStore::new(&self.inj, self.next_salt());
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(suffix.to_string(), store.clone());
        Ok(Box::new(store))
    }

    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        if self.inj.crashed() {
            return Err(killed());
        }
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(suffix)
            .cloned()
            .map(|s| Box::new(s) as Box<dyn RawStore>)
            .ok_or_else(|| {
                StorageError::Io(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such store: {suffix:?}"),
                ))
            })
    }

    fn exists(&self, suffix: &str) -> Result<bool> {
        if self.inj.crashed() {
            return Err(killed());
        }
        Ok(self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(suffix))
    }

    fn remove(&self, suffix: &str) -> Result<()> {
        if self.inj.crashed() {
            return Err(killed());
        }
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(suffix);
        Ok(())
    }

    fn temp(&self) -> Result<Box<dyn RawStore>> {
        if self.inj.crashed() {
            return Err(killed());
        }
        Ok(Box::new(FaultStore::new(&self.inj, self.next_salt())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_writes_are_durable_unsynced_ones_may_vanish() {
        let inj = FaultInjector::armed(FaultKind::ShortWrite, 2, 0xBEEF);
        let store = FaultStore::new(&inj, 1);
        store.write_at(0, &[1u8; 100]).unwrap(); // op 0
        store.sync().unwrap();
        store.write_at(100, &[2u8; 100]).unwrap(); // op 1
        let err = store.write_at(200, &[3u8; 100]).unwrap_err(); // op 2: crash
        assert!(matches!(err, StorageError::Io(_)));
        assert!(inj.crashed());
        assert!(store.read_at(0, &mut [0u8; 1]).is_err(), "dead after crash");
        let disk = store.durable_bytes();
        assert!(disk.len() >= 100);
        assert!(disk[..100].iter().all(|&b| b == 1), "synced bytes survive");
        // Deterministic: the same seed reconstructs the same disk.
        assert_eq!(disk, store.durable_bytes());
    }

    #[test]
    fn torn_sector_mangles_at_512_granularity() {
        let inj = FaultInjector::armed(FaultKind::TornSector, 0, 7);
        let store = FaultStore::new(&inj, 2);
        store.write_at(0, &[0xABu8; 2048]).unwrap_err(); // crash in flight
        let disk = store.durable_bytes();
        for sector in 0..disk.len() / 512 {
            let chunk = &disk[sector * 512..(sector + 1) * 512];
            assert!(
                chunk.iter().all(|&b| b == 0xAB) || chunk.iter().all(|&b| b == 0),
                "sector {sector} must be all-old or all-new"
            );
        }
    }

    #[test]
    fn dropped_fsync_triggers_on_sync_not_write() {
        let inj = FaultInjector::armed(FaultKind::DroppedFsync, 0, 7);
        let store = FaultStore::new(&inj, 3);
        store.write_at(0, &[5u8; 10]).unwrap(); // writes don't trigger it
        store.write_at(10, &[6u8; 10]).unwrap();
        assert!(!inj.crashed());
        assert!(store.sync().is_err(), "first fsync is the crash point");
        assert!(inj.crashed());
    }

    #[test]
    fn unarmed_injector_counts_but_never_fires() {
        let inj = FaultInjector::unarmed();
        let store = FaultStore::new(&inj, 4);
        for i in 0..10 {
            store.write_at(i * 8, &[i as u8; 8]).unwrap();
        }
        store.sync().unwrap();
        assert!(!inj.crashed());
        assert_eq!(inj.ops_seen(), 10);
        assert_eq!(store.durable_bytes().len(), 80);
    }
}
