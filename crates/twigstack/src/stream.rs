//! Disk-resident element streams.
//!
//! The stack algorithms consume, per query-twig tag, a stream of element
//! instances sorted by `Left`. Streams live in the shared
//! [`RecordStore`] as chunks of encoded [`Element`]s and are read
//! sequentially through the buffer pool, so "pages read" reflects how
//! much of each input list an algorithm actually touched — the quantity
//! behind Tables 7–9.

use std::collections::HashMap;
use std::sync::Arc;

use prix_storage::{BufferPool, RecordId, RecordStore, Result};
use prix_xml::Sym;

use crate::pos::Element;

/// Elements per chunk record (~7 KiB per chunk of 24-byte elements).
const CHUNK: usize = 300;

/// Metadata of one on-disk stream.
#[derive(Debug, Clone, Default)]
pub struct StreamMeta {
    chunks: Vec<RecordId>,
    len: usize,
}

/// All per-tag streams of a collection, on disk.
pub struct StreamStore {
    store: RecordStore,
    streams: HashMap<Sym, StreamMeta>,
}

impl StreamStore {
    /// Writes `streams` (each sorted by `Left`) into `pool`-backed
    /// storage.
    pub fn build(pool: Arc<BufferPool>, streams: &HashMap<Sym, Vec<Element>>) -> Result<Self> {
        let mut store = RecordStore::create(pool)?;
        let mut metas = HashMap::with_capacity(streams.len());
        for (&sym, elems) in streams {
            let mut meta = StreamMeta {
                chunks: Vec::with_capacity(elems.len().div_ceil(CHUNK)),
                len: elems.len(),
            };
            for chunk in elems.chunks(CHUNK) {
                let mut buf = Vec::with_capacity(chunk.len() * Element::ENCODED_LEN);
                for e in chunk {
                    buf.extend_from_slice(&e.encode());
                }
                meta.chunks.push(store.append(&buf)?);
            }
            metas.insert(sym, meta);
        }
        Ok(StreamStore {
            store,
            streams: metas,
        })
    }

    /// Number of elements in the stream of `sym` (0 if absent).
    pub fn len(&self, sym: Sym) -> usize {
        self.streams.get(&sym).map_or(0, |m| m.len)
    }

    /// Opens a sequential reader over the stream of `sym`.
    pub fn reader(&self, sym: Sym) -> StreamReader<'_> {
        StreamReader {
            store: &self.store,
            meta: self.streams.get(&sym).cloned().unwrap_or_default(),
            chunk_idx: 0,
            buf: Vec::new(),
            pos_in_chunk: 0,
            consumed: 0,
        }
    }

    /// All element chunks of `sym`, decoded (bulk access for XB-tree
    /// construction and tests).
    pub fn read_all(&self, sym: Sym) -> Result<Vec<Element>> {
        let mut r = self.reader(sym);
        let mut out = Vec::new();
        while let Some(e) = r.head()? {
            out.push(e);
            r.advance()?;
        }
        Ok(out)
    }
}

/// Sequential cursor over one stream.
pub struct StreamReader<'a> {
    store: &'a RecordStore,
    meta: StreamMeta,
    chunk_idx: usize,
    buf: Vec<u8>,
    pos_in_chunk: usize,
    consumed: usize,
}

impl<'a> StreamReader<'a> {
    /// The current element, or `None` at end of stream. Loads the
    /// current chunk on demand (a buffer-pool read).
    pub fn head(&mut self) -> Result<Option<Element>> {
        if self.consumed >= self.meta.len {
            return Ok(None);
        }
        if self.buf.is_empty() {
            self.buf = self.store.read(self.meta.chunks[self.chunk_idx])?;
            self.pos_in_chunk = 0;
        }
        let off = self.pos_in_chunk * Element::ENCODED_LEN;
        Ok(Some(Element::decode(
            &self.buf[off..off + Element::ENCODED_LEN],
        )))
    }

    /// Moves past the current element.
    pub fn advance(&mut self) -> Result<()> {
        if self.consumed >= self.meta.len {
            return Ok(());
        }
        self.consumed += 1;
        self.pos_in_chunk += 1;
        if self.pos_in_chunk * Element::ENCODED_LEN >= self.buf.len() {
            self.chunk_idx += 1;
            self.buf.clear();
        }
        Ok(())
    }

    /// `true` once the stream is exhausted.
    pub fn eof(&self) -> bool {
        self.consumed >= self.meta.len
    }

    /// Elements consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::Pager;

    fn sample(n: u64) -> Vec<Element> {
        (0..n)
            .map(|i| Element {
                left: i * 2 + 1,
                right: i * 2 + 2,
                level: (i % 5) as u32 + 1,
                doc: (i / 10) as u32,
            })
            .collect()
    }

    fn store_with(n: u64) -> StreamStore {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 32));
        let mut m = HashMap::new();
        m.insert(Sym(1), sample(n));
        StreamStore::build(pool, &m).unwrap()
    }

    #[test]
    fn roundtrip_small() {
        let s = store_with(7);
        assert_eq!(s.len(Sym(1)), 7);
        assert_eq!(s.read_all(Sym(1)).unwrap(), sample(7));
    }

    #[test]
    fn roundtrip_across_chunks() {
        let s = store_with(1000);
        let all = s.read_all(Sym(1)).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all, sample(1000));
    }

    #[test]
    fn missing_stream_is_empty() {
        let s = store_with(3);
        assert_eq!(s.len(Sym(99)), 0);
        let mut r = s.reader(Sym(99));
        assert!(r.eof());
        assert_eq!(r.head().unwrap(), None);
    }

    #[test]
    fn reader_tracks_consumption() {
        let s = store_with(5);
        let mut r = s.reader(Sym(1));
        assert!(!r.eof());
        let mut seen = 0;
        while r.head().unwrap().is_some() {
            r.advance().unwrap();
            seen += 1;
        }
        assert_eq!(seen, 5);
        assert!(r.eof());
        assert_eq!(r.consumed(), 5);
        // advance past eof is a no-op
        r.advance().unwrap();
        assert_eq!(r.consumed(), 5);
    }

    #[test]
    fn sequential_read_costs_pages_once() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        let mut m = HashMap::new();
        m.insert(Sym(1), sample(3000));
        let s = StreamStore::build(Arc::clone(&pool), &m).unwrap();
        pool.clear().unwrap();
        let before = pool.snapshot();
        let _ = s.read_all(Sym(1)).unwrap();
        let d = pool.snapshot().since(&before);
        // 3000 elements * 24B / 8K pages ≈ 9+ pages, one physical read
        // each.
        assert!(d.physical_reads >= 9 && d.physical_reads <= 20, "{d:?}");
    }
}
