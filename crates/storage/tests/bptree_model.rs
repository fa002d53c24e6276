//! Model-based property test: a B+-tree bulk-loaded from sorted random
//! entries (duplicate keys included) answers point lookups and bounded
//! range scans exactly like the entries themselves — equal keys in the
//! order they were loaded.

use std::ops::Bound;
use std::sync::Arc;

use prix_storage::{BPlusTree, BufferPool, Pager};
use prix_testkit::{check, from_fn, vec_of, Config, Generator};

/// One entry: a key from a small space, so duplicates happen, and the
/// byte its value repeats.
fn arb_entry() -> impl Generator<Value = (u16, u8)> {
    from_fn(|rng| (rng.below(512) as u16, rng.below(256) as u8))
}

fn key(k: u16) -> [u8; 2] {
    k.to_be_bytes()
}

/// A value long enough that a few hundred entries fill several leaves.
fn val(v: u8) -> Vec<u8> {
    vec![v; 40]
}

#[test]
fn bulk_loaded_bptree_matches_its_entries() {
    let entries_gen = vec_of(0, 600, arb_entry());
    check(
        "bulk_loaded_bptree_matches_its_entries",
        &Config::cases(64),
        &entries_gen,
        |entries| {
            // Sorted by key only: equal keys stay in generation order,
            // which is the order the tree must give them back in.
            let mut model = entries.clone();
            model.sort_by_key(|&(k, _)| k);
            let pool = Arc::new(BufferPool::new(Pager::in_memory(), 16));
            let loaded = model.iter().map(|&(k, v)| (key(k).to_vec(), val(v)));
            let tree = BPlusTree::bulk_load(pool, loaded, 0.9).unwrap();
            let scan = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| {
                let mut got: Vec<(u16, u8)> = Vec::new();
                tree.scan(lo, hi, |k, v| {
                    got.push((u16::from_be_bytes(k.try_into().unwrap()), v[0]));
                    true
                })
                .unwrap();
                got
            };
            if scan(Bound::Unbounded, Bound::Unbounded) != model {
                return Err("a full scan differs from the entries".into());
            }
            for probe in (0..520u16).step_by(7) {
                let want = model
                    .iter()
                    .find(|&&(k, _)| k == probe)
                    .map(|&(_, v)| val(v));
                if tree.get(&key(probe)).unwrap() != want {
                    return Err(format!("get {probe}"));
                }
            }
            for (a, b) in [(0u16, 0u16), (3, 300), (100, 101), (250, 511), (400, 90)] {
                let (lo, hi) = (a.min(b), a.max(b));
                let within = |k: u16, lo_in: bool, hi_in: bool| {
                    (k > lo || (lo_in && k == lo)) && (k < hi || (hi_in && k == hi))
                };
                for (lo_in, hi_in) in [(true, true), (false, true), (true, false), (false, false)] {
                    let bound = |k, inclusive| {
                        if inclusive {
                            Bound::Included(k)
                        } else {
                            Bound::Excluded(k)
                        }
                    };
                    let got = scan(bound(&key(lo)[..], lo_in), bound(&key(hi)[..], hi_in));
                    let want: Vec<(u16, u8)> = model
                        .iter()
                        .copied()
                        .filter(|&(k, _)| within(k, lo_in, hi_in))
                        .collect();
                    if got != want {
                        return Err(format!("scan {lo}..{hi} ({lo_in}, {hi_in})"));
                    }
                }
            }
            Ok(())
        },
    );
}
