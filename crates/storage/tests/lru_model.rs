//! Model-based property test for the one LRU: under a random
//! interleaving of `get`, `insert`, `touch`, `retain` and `clear`, at
//! capacities 1 to 8 over a key space a little larger, `Lru` answers
//! every call exactly like a `Vec` kept in recency order (most recent
//! first) that drops its last entry when an admission would overflow
//! it.

use prix_storage::Lru;
use prix_testkit::{check, from_fn, replay, Config, Generator};

const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u32),
    Touch(u64),
    /// Keeps the keys whose bit is set.
    Retain(u16),
    Clear,
}

#[derive(Debug, Clone)]
struct Workload {
    capacity: usize,
    ops: Vec<Op>,
}

/// Capacity in 1..=8 and a weighted op tape (4 get : 4 insert : 4
/// touch : 1 retain : 1 clear) over twelve keys, so that every capacity
/// evicts.
fn arb_workload() -> impl Generator<Value = Workload> {
    from_fn(|rng| {
        let capacity = 1 + rng.below(8) as usize;
        let len = 1 + rng.below(200) as usize;
        let ops = (0..len)
            .map(|_| {
                let key = rng.below(KEYS);
                match rng.below(14) {
                    0..=3 => Op::Get(key),
                    4..=7 => Op::Insert(key, rng.below(1000) as u32),
                    8..=11 => Op::Touch(key),
                    12 => Op::Retain(rng.below(1 << KEYS) as u16),
                    _ => Op::Clear,
                }
            })
            .collect();
        Workload { capacity, ops }
    })
}

/// What `touch` admits a missing key with.
fn made(key: u64) -> u32 {
    10_000 + key as u32
}

/// The reference: `(key, value)`, most recently used first.
struct Model {
    order: Vec<(u64, u32)>,
    capacity: usize,
}

impl Model {
    /// Moves `key` to the front; its value, if it was there.
    fn promote(&mut self, key: u64) -> Option<u32> {
        let at = self.order.iter().position(|&(k, _)| k == key)?;
        let entry = self.order.remove(at);
        self.order.insert(0, entry);
        Some(entry.1)
    }

    /// Puts `(key, val)` at the front of an order without `key`;
    /// returns how many entries went to make room.
    fn admit(&mut self, key: u64, val: u32) -> u64 {
        let evicted = self.order.len() >= self.capacity;
        if evicted {
            self.order.pop();
        }
        self.order.insert(0, (key, val));
        u64::from(evicted)
    }
}

fn run_workload(w: &Workload) -> Result<(), String> {
    let mut lru: Lru<u64, u32> = Lru::new(w.capacity);
    let mut model = Model {
        order: Vec::new(),
        capacity: w.capacity,
    };
    for (step, op) in w.ops.iter().enumerate() {
        let (got, want) = match *op {
            Op::Get(k) => (
                format!("{:?}", lru.get(&k)),
                format!("{:?}", model.promote(k).as_ref()),
            ),
            Op::Insert(k, v) => {
                let want = match model.promote(k) {
                    Some(_) => {
                        model.order[0].1 = v;
                        0
                    }
                    None => model.admit(k, v),
                };
                (lru.insert(k, v).to_string(), want.to_string())
            }
            Op::Touch(k) => {
                let want = model.promote(k).is_none() && {
                    model.admit(k, made(k));
                    true
                };
                (lru.touch(k, || made(k)).to_string(), want.to_string())
            }
            Op::Retain(mask) => {
                let keep = |k: &u64| mask & (1 << k) != 0;
                let before = model.order.len();
                model.order.retain(|(k, _)| keep(k));
                let want = (before - model.order.len()) as u64;
                (lru.retain(keep).to_string(), want.to_string())
            }
            Op::Clear => {
                lru.clear();
                model.order.clear();
                (String::new(), String::new())
            }
        };
        if got != want {
            return Err(format!(
                "step {step}, {op:?}: the LRU answered {got}, the model {want}"
            ));
        }
        if lru.len() != model.order.len() || lru.is_empty() != model.order.is_empty() {
            return Err(format!(
                "step {step}, {op:?}: the LRU holds {} entries, the model {}",
                lru.len(),
                model.order.len()
            ));
        }
    }
    // Whatever the tape did, the LRU holds exactly the model's entries.
    for k in 0..KEYS {
        let want = model.order.iter().find(|&&(key, _)| key == k).map(|e| e.1);
        if lru.get(&k).copied() != want {
            return Err(format!("key {k} at the end: the model holds {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn lru_matches_recency_ordered_vec() {
    check(
        "lru_matches_recency_ordered_vec",
        &Config::cases(256),
        &arb_workload(),
        run_workload,
    );
}

/// Pinned regression seed: capacity 4 under a 166-op tape — 14
/// evictions through `insert` and 13 through `touch`, 12 `retain`s
/// freeing 24 slots that later admissions reuse, and 9 `clear`s.
#[test]
fn lru_model_replay_pinned_seed() {
    replay(0x1CDE_2004_0000_001F, &arb_workload(), run_workload);
}
