//! Model-based property test for the sharded buffer pool: under a
//! random interleaving of writes, reads and `clear()`s — across random
//! shard counts and capacities — the pool behaves exactly like a flat
//! `HashMap<page, byte>`: a read returns the last-written byte. The
//! pool never holds more pages in its LRU than its configured capacity.

use std::collections::HashMap;

use prix_storage::{BufferPool, Pager};
use prix_testkit::{check, from_fn, replay, Config, Generator};

const PAGES: usize = 40;

#[derive(Debug, Clone)]
enum Op {
    Write(usize, u8),
    Read(usize),
    Clear,
}

#[derive(Debug, Clone)]
struct Workload {
    capacity: usize,
    shards: usize,
    ops: Vec<Op>,
}

/// Random capacity in 1..=24 and a power-of-two shard count clamped to
/// the capacity, plus a weighted op tape (4 write : 3 read : 1 clear).
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
                match rng.below(8) {
                    0..=3 => Op::Write(page, rng.below(256) as u8),
                    4..=6 => Op::Read(page),
                    _ => Op::Clear,
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
    let pool = BufferPool::with_shards(Pager::in_memory(), w.capacity, w.shards);
    let ids: Vec<_> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    // Freshly allocated pages are zero-filled.
    let mut model: HashMap<usize, u8> = (0..PAGES).map(|p| (p, 0)).collect();

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
/// 236-op tape with 112 writes and 29 clears — constant eviction with
/// clearing racing through the op stream. Must keep passing verbatim; a
/// failure seed reported by `check` above belongs here too.
#[test]
fn pool_model_replay_pinned_seed() {
    replay(0x1CDE_2004_0000_0002, &arb_workload(), run_workload);
}
