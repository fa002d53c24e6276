//! Bounded-memory external merge sort: the first half of every bulk
//! build. Items are buffered up to a budget, spilled as sorted runs to
//! scratch stores, and k-way-merged on drain, so a build's memory does
//! not grow with the collection.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::blockfile::{corrupt, SeqWriter};
use crate::error::Result;
use crate::store::RawStore;

/// Buffered sequential reader over one spilled run.
pub struct RunBuf {
    store: Box<dyn RawStore>,
    pos: u64,
    end: u64,
    buf: Vec<u8>,
    off: usize,
}

impl RunBuf {
    const CHUNK: usize = 256 * 1024;

    fn new(store: Box<dyn RawStore>, end: u64) -> Self {
        RunBuf {
            store,
            pos: 0,
            end,
            buf: Vec::new(),
            off: 0,
        }
    }

    fn remaining(&self) -> u64 {
        (self.end - self.pos) + (self.buf.len() - self.off) as u64
    }

    /// Fills `dst` from the run, refilling the chunk buffer as needed.
    pub fn take(&mut self, dst: &mut [u8]) -> Result<()> {
        let mut done = 0;
        while done < dst.len() {
            if self.off == self.buf.len() {
                let want = Self::CHUNK.min((self.end - self.pos) as usize);
                if want == 0 {
                    return Err(corrupt("spill run truncated".into()));
                }
                self.buf.resize(want, 0);
                self.store.read_at(self.pos, &mut self.buf)?;
                self.pos += want as u64;
                self.off = 0;
            }
            let n = (dst.len() - done).min(self.buf.len() - self.off);
            dst[done..done + n].copy_from_slice(&self.buf[self.off..self.off + n]);
            self.off += n;
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
}

/// An item an [`ExternalSorter`] can spill and re-read.
pub trait SortItem: Ord + Sized {
    /// Appends a self-framing encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one item from a spill run.
    fn decode(r: &mut RunBuf) -> Result<Self>;
    /// Approximate in-memory footprint, for the run budget.
    fn mem_size(&self) -> usize;
}

/// Factory for spill-run scratch stores (anonymous temp files on disk,
/// `MemStore`s in tests).
pub type TempFactory = Box<dyn FnMut() -> Result<Box<dyn RawStore>> + Send>;

/// Bounded-memory sorter: buffers items up to a budget, spills sorted
/// runs to scratch stores, and k-way-merges the runs on drain.
pub struct ExternalSorter<T: SortItem> {
    budget: usize,
    mem: usize,
    items: Vec<T>,
    runs: Vec<(Box<dyn RawStore>, u64)>,
    temp: TempFactory,
    count: u64,
}

impl<T: SortItem> ExternalSorter<T> {
    /// A sorter holding at most ~`budget` bytes of items in memory.
    pub fn new(budget: usize, temp: TempFactory) -> Self {
        ExternalSorter {
            budget: budget.max(64 * 1024),
            mem: 0,
            items: Vec::new(),
            runs: Vec::new(),
            temp,
            count: 0,
        }
    }

    /// Number of items pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of runs spilled so far.
    #[cfg(test)]
    fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds one item, spilling a sorted run if the budget is exceeded.
    pub fn push(&mut self, item: T) -> Result<()> {
        self.mem += item.mem_size();
        self.items.push(item);
        self.count += 1;
        if self.mem >= self.budget {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.items.is_empty() {
            return Ok(());
        }
        self.items.sort_unstable();
        let mut run = SeqWriter::new((self.temp)()?, 0);
        for item in self.items.drain(..) {
            run.push_with(|buf| item.encode(buf))?;
        }
        self.runs.push(run.finish()?);
        self.mem = 0;
        Ok(())
    }

    /// Drains every item in ascending order through `f`.
    pub fn drain(mut self, mut f: impl FnMut(T) -> Result<()>) -> Result<()> {
        if self.runs.is_empty() {
            self.items.sort_unstable();
            for item in self.items.drain(..) {
                f(item)?;
            }
            return Ok(());
        }
        self.spill()?;
        let mut readers: Vec<RunBuf> = self
            .runs
            .drain(..)
            .map(|(store, end)| RunBuf::new(store, end))
            .collect();
        // Min-heap keyed on (item, run); the run index breaks ties
        // deterministically (items are unique in practice).
        let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if r.remaining() > 0 {
                heap.push(Reverse((T::decode(r)?, i)));
            }
        }
        while let Some(Reverse((item, i))) = heap.pop() {
            f(item)?;
            if readers[i].remaining() > 0 {
                heap.push(Reverse((T::decode(&mut readers[i])?, i)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::structural::TagEntry;
    use super::*;
    use crate::store::MemStore;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn external_sorter_spills_and_merges_in_order() {
        let mut s = 17u64;
        let mut sorter: ExternalSorter<TagEntry> = ExternalSorter::new(
            1,
            Box::new(|| Ok(Box::new(MemStore::new()) as Box<dyn RawStore>)),
        );
        let n = 5000u64;
        for _ in 0..n {
            sorter
                .push(TagEntry {
                    sym: (lcg(&mut s) % 16) as u32,
                    left: lcg(&mut s),
                    right: 0,
                    level: 1,
                    fine_gap: 0,
                })
                .unwrap();
        }
        assert!(sorter.spilled_runs() >= 2, "tiny budget must spill runs");
        assert_eq!(sorter.len(), n);
        let mut prev: Option<TagEntry> = None;
        let mut count = 0u64;
        sorter
            .drain(|t| {
                assert!(prev.is_none_or(|p| p <= t), "merge out of order");
                prev = Some(t);
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(count, n);
    }
}
