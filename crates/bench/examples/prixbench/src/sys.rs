//! What the operating system knows about this process: bytes written,
//! peak memory, the CPU it runs on, and the scratch directory the run
//! lives in.

use std::path::{Path, PathBuf};

/// Words of a CPU mask: room for 1024 CPUs, the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread started from it
/// afterwards (the server's workers and compactor, the clients, the
/// clock sampler), to the last of the CPUs the process may use, and
/// returns that CPU. With one caller at a time there is work for one
/// core, and left to the scheduler that work wanders: a server worker
/// woken on the other vCPU first has to be brought out of its halt by
/// the hypervisor, and a cached request then takes 48 µs on the wire
/// where it takes 16 µs when caller and worker share a core; which of
/// the two a run saw, or a run's every pass, was a coin toss. On one
/// CPU a wake-up is a context switch and nothing else.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and lives through the call; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the process may run on no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn proc_field(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no `{key}` field"))
}

/// Bytes this process has passed to `write`-family calls so far:
/// database pages, WAL frames, segment files, sort spills. Sockets go
/// through `send`, which this counter does not see, so the wire
/// workloads' traffic stays out of it.
pub fn file_bytes_written() -> Result<u64, String> {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_field("/proc/self/status", "VmHWM:")? as f64 / 1024.0)
}

/// A scratch directory next to the executable, so every byte the run
/// writes stays inside the build directory of the checkout. Removed on
/// drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let base = exe.parent().ok_or("executable has no parent directory")?;
        let path = base
            .join("prixbench-work")
            .join(std::process::id().to_string());
        // A previous process with this pid may have been killed.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
