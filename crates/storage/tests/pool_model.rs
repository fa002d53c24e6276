//! Model-based property test for the sharded buffer pool: under a
//! random interleaving of writes, reads, `clear()`s, pins and
//! ingest rounds — across random shard counts and capacities — the pool
//! behaves exactly like a flat `HashMap<page, byte>`: an unpinned read
//! returns the last-written byte, a pinned read the byte as of its pin,
//! and an aborted round leaves the map as the round found it. The pool
//! never holds more pages in its LRU than its configured capacity.

use std::collections::HashMap;
use std::sync::Arc;

use prix_storage::{BufferPool, PagePin, Pager};
use prix_testkit::{check, from_fn, replay, Config, Generator};

const PAGES: usize = 40;

#[derive(Debug, Clone)]
enum Op {
    Write(usize, u8),
    Read(usize),
    Clear,
    /// Pins the pool as it stands (inside a round: the round's start).
    Pin,
    /// Drops the pin at this index, modulo the pins held.
    Unpin(usize),
    /// Reads a page under the pin at this index, modulo the pins held.
    PinnedRead(usize, usize),
    /// Starts an ingest round (a no-op inside one).
    Begin,
    /// Publishes the round (a no-op outside one).
    Publish,
    /// Rolls the round back (a no-op outside one).
    Abort,
}

#[derive(Debug, Clone)]
struct Workload {
    capacity: usize,
    shards: usize,
    ops: Vec<Op>,
}

/// Random capacity in 1..=24 and a power-of-two shard count clamped to
/// the capacity, plus a weighted op tape (4 write : 3 read : 1 clear :
/// 1 pin : 1 unpin : 3 pinned read : 1 begin : 1 publish : 1 abort).
/// Small capacities force eviction on nearly every access.
fn arb_workload() -> impl Generator<Value = Workload> {
    from_fn(|rng| {
        let capacity = 1 + rng.below(24) as usize;
        let mut shards = 1usize << rng.below(4);
        while shards > capacity {
            shards /= 2;
        }
        let len = 1 + rng.below(300) as usize;
        let ops = (0..len)
            .map(|_| {
                let page = rng.below(PAGES as u64) as usize;
                match rng.below(16) {
                    0..=3 => Op::Write(page, rng.below(256) as u8),
                    4..=6 => Op::Read(page),
                    7 => Op::Clear,
                    8 => Op::Pin,
                    9 => Op::Unpin(rng.below(8) as usize),
                    10..=12 => Op::PinnedRead(rng.below(8) as usize, page),
                    13 => Op::Begin,
                    14 => Op::Publish,
                    _ => Op::Abort,
                }
            })
            .collect();
        Workload {
            capacity,
            shards,
            ops,
        }
    })
}

fn run_workload(w: &Workload) -> Result<(), String> {
    let pool = Arc::new(BufferPool::with_shards(
        Pager::in_memory(),
        w.capacity,
        w.shards,
    ));
    let ids: Vec<_> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    // Freshly allocated pages are zero-filled.
    let mut model: HashMap<usize, u8> = (0..PAGES).map(|p| (p, 0)).collect();
    // The model as the round in flight found it.
    let mut round: Option<HashMap<usize, u8>> = None;
    // Each pin and the model as of its freeze.
    let mut pins: Vec<(PagePin, HashMap<usize, u8>)> = Vec::new();

    for op in &w.ops {
        match *op {
            Op::Write(p, v) => {
                pool.with_page_mut(ids[p], |d| d[11] = v).unwrap();
                model.insert(p, v);
            }
            Op::Read(p) => {
                let got = pool.with_page(ids[p], |d| d[11]).unwrap();
                let want = model[&p];
                if got != want {
                    return Err(format!("page {p}: read {got}, last write was {want}"));
                }
            }
            Op::Clear => pool.clear().unwrap(),
            Op::Pin => {
                let seen = round.as_ref().unwrap_or(&model).clone();
                pins.push((pool.pin(), seen));
            }
            Op::Unpin(i) if !pins.is_empty() => {
                pins.remove(i % pins.len());
            }
            Op::PinnedRead(i, p) if !pins.is_empty() => {
                let (pin, seen) = &pins[i % pins.len()];
                let got = {
                    let _g = pin.guard();
                    pool.with_page(ids[p], |d| d[11]).unwrap()
                };
                if got != seen[&p] {
                    return Err(format!(
                        "page {p} pinned: read {got}, the pin saw {}",
                        seen[&p]
                    ));
                }
            }
            Op::Begin if round.is_none() => {
                pool.begin_ingest();
                round = Some(model.clone());
            }
            Op::Publish if round.is_some() => {
                pool.publish_ingest();
                round = None;
            }
            Op::Abort => {
                if let Some(start) = round.take() {
                    pool.abort_ingest();
                    model = start;
                }
            }
            Op::Unpin(_) | Op::PinnedRead(..) | Op::Begin | Op::Publish => {}
        }
        let resident = pool.resident();
        if resident > w.capacity {
            return Err(format!(
                "{resident} resident pages exceed capacity {} ({} shards)",
                w.capacity, w.shards
            ));
        }
    }
    // Whatever the interleaving did, the full image must survive a final
    // clear (every page re-faulted through the LRU).
    pool.clear().unwrap();
    for (p, &want) in &model {
        let got = pool.with_page(ids[*p], |d| d[11]).unwrap();
        if got != want {
            return Err(format!("page {p} after final clear: {got} != {want}"));
        }
    }
    Ok(())
}

#[test]
fn pool_matches_flat_map_model() {
    check(
        "pool_matches_flat_map_model",
        &Config::cases(96),
        &arb_workload(),
        run_workload,
    );
}

/// Pinned regression seed: capacity 6 split over 4 shards under a
/// 236-op tape with 19 clears — constant eviction with clearing racing
/// through the op stream. Must keep passing verbatim; a failure seed
/// reported by `check` above belongs here too.
#[test]
fn pool_model_replay_pinned_seed() {
    replay(0x1CDE_2004_0000_0002, &arb_workload(), run_workload);
}

/// Pinned regression seed for versions: capacity 23 over 2 shards under
/// a 286-op tape with 20 pins, 61 pinned reads, 18 rounds begun and 26
/// abort ops — readers of many epochs held across publishes and
/// rollbacks.
#[test]
fn pool_model_replay_pinned_versions_seed() {
    replay(0x1CDE_2004_0000_0016, &arb_workload(), run_workload);
}
