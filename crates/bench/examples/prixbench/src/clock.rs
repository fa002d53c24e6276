//! The sandbox's cores run at one of two clock speeds, both vCPUs
//! together, for seconds to minutes at a time: a chain of dependent
//! shifts and xors takes 1.47 ns a step at the fast clock and about
//! 1.88 ns at the slow one, whatever this process does. CPU-bound
//! timings move by the same 28 %, which is more than any bound
//! `BENCHMARK.json` may set, and three of ten runs landing in the fast
//! state put the quartile distance of the typical latency at 0.29.
//!
//! So a sampler thread times that chain every few milliseconds while a
//! workload is measured, and every latency the driver's own clients
//! measure is scaled to the reference clock: the one at which a step
//! takes [`REF_NS_PER_STEP`], the sandbox's slow clock. A timing then
//! reads in microseconds of that clock. Waiting that does not scale with
//! the core clock (memory, system calls, fsync) is scaled with it, which
//! over-corrects those parts by what the two clocks differ; the
//! `loadgen.clock_factor` layer metric says by how much a run was scaled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Steps of one calibration chain: about 0.2 ms.
const CHAIN_STEPS: u64 = 100_000;
/// Nanoseconds a step takes at the reference clock.
const REF_NS_PER_STEP: f64 = 1.875;
/// Pause between two chains: the sampler takes 2 % of one core.
const PERIOD: Duration = Duration::from_millis(10);
/// A timing is scaled by the samples this close to it.
const WINDOW_S: f64 = 0.1;

/// Reference time over measured time of one chain: above 1 when the
/// clock runs faster than the reference.
fn sample() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x0139_408D_CBBF_7A44;
    for _ in 0..CHAIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    CHAIN_STEPS as f64 * REF_NS_PER_STEP / t.elapsed().as_nanos() as f64
}

/// The sampler: a thread that appends `(seconds since the start,
/// factor)` samples until it is stopped.
pub struct Clock {
    start: Instant,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    thread: JoinHandle<()>,
}

impl Clock {
    pub fn start() -> Clock {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        // Never empty: the first sample is taken here.
        let samples = Arc::new(Mutex::new(vec![(0.0, sample())]));
        let (stopped, log) = (Arc::clone(&stop), Arc::clone(&samples));
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let s = (start.elapsed().as_secs_f64(), sample());
                log.lock().expect("no holder of the lock panics").push(s);
            }
        });
        Clock {
            start,
            stop,
            samples,
            thread,
        }
    }

    /// Stops the sampler and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "clock sampler panicked".to_string())
    }

    /// The factor that scales a duration measured around `at` to the
    /// reference clock. A chain that was preempted reads slow, never
    /// fast, so the window's fastest chain is the clock's speed. (Where
    /// the clock changes speed inside the window this reads the fast
    /// one, and a timing taken at the slow one comes out too long; the
    /// metrics keep each operation's fastest timing, so it drops out.)
    pub fn factor(&self, at: Instant) -> f64 {
        let samples = self.samples.lock().expect("no holder of the lock panics");
        let t = at.saturating_duration_since(self.start).as_secs_f64();
        let lo = samples.partition_point(|s| s.0 < t - WINDOW_S);
        let hi = samples.partition_point(|s| s.0 <= t + WINDOW_S);
        // Where the sampler was held up, the nearest sample on either
        // side stands in.
        let near = samples[lo.saturating_sub(1)..(hi + 1).min(samples.len())]
            .iter()
            .map(|s| s.1);
        near.fold(0.0, f64::max)
    }

    /// Median factor so far.
    pub fn median_factor(&self) -> f64 {
        let samples = self.samples.lock().expect("no holder of the lock panics");
        crate::stats::median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}
