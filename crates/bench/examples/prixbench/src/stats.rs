//! Order statistics over timing samples.

/// Sorts `v` ascending (NaN-free inputs only).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// The `p`-th percentile (`0 < p < 100`) of an ascending slice by the
/// nearest-rank rule. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `compare` reports the spread the acceptance rule uses.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Mean of a sample; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on this workload reports 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cuts `samples` (in arrival order) into passes of `len` slots and
/// returns, per slot, the fastest of its timings; a shorter last pass is
/// left out. Every pass runs the same operations in the same order, so
/// what differs between two timings of a slot is what else the machine
/// was doing, and that only ever adds time: the sandbox shares its host,
/// and a pass takes from 1 to 1.7 times its best for seconds on end. The
/// fastest timing is what the operation costs when left alone, and it
/// repeats from run to run where a median of the timings does not.
pub fn best_per_slot(samples: &[f64], len: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; len];
    for pass in samples.chunks_exact(len.max(1)) {
        for (b, &s) in best.iter_mut().zip(pass) {
            *b = b.min(s);
        }
    }
    best.retain(|b| b.is_finite());
    best
}

/// What the latency metrics are made of: per-slot best timings in
/// microseconds, reduced to three numbers.
pub struct Latency {
    /// Mean of the middle half (between the quartiles): the typical
    /// operation. The pool's costs come in clusters with steep steps
    /// between them, and a median that sits on a step moves by a third
    /// when a seed shifts a few queries across it; this mean does not.
    pub mid_us: f64,
    /// Mean of the costliest tenth.
    pub tail_us: f64,
    /// Operations per second of one caller that waits for each reply.
    pub per_s: f64,
}

pub fn latency(best_us: &[f64]) -> Latency {
    let mut s = best_us.to_vec();
    sort(&mut s);
    let n = s.len();
    let tenth = (n + 9) / 10;
    Latency {
        mid_us: mean(&s[n / 4..n - n / 4]),
        tail_us: mean(&s[n - tenth..]),
        per_s: ratio(n as f64 * 1e6, s.iter().sum()),
    }
}

/// The `p`-th percentile of an unsorted sample.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    percentile(&s, p)
}
