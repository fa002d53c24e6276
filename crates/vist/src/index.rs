//! The ViST index structures: the D-Ancestorship B⁺-tree over
//! `(symbol, prefix)` keys, the Docid index, and their construction
//! over one collection.

use std::collections::HashMap;
use std::sync::Arc;

use prix_storage::segment::label_paths;
use prix_storage::{BPlusTree, BufferPool};
use prix_xml::{Collection, Sym};

use crate::seq::{structure_encode, PairKey};
use crate::Result;

/// Build-time statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct VistBuildStats {
    /// Distinct `(symbol, prefix)` keys in the D-Ancestorship index.
    pub unique_keys: usize,
    /// Trie nodes.
    pub trie_nodes: usize,
    /// Total encoded sequence length (elements).
    pub total_seq_len: u64,
    /// Total bytes of (symbol, prefix) key material — the quantity that
    /// grows `O(n²)` on unary trees (§2).
    pub key_bytes: u64,
}

/// The ViST index over one collection.
pub struct VistIndex {
    pub(crate) pool: Arc<BufferPool>,
    /// D-Ancestorship index: key = sym(4 BE) ++ prefix syms(4 BE each)
    /// ++ left(8 BE); value = right(8 LE) ++ pair-id(4 LE).
    pub(crate) dancestor: BPlusTree,
    /// Docid index: left(8 BE) -> doc(4 LE).
    pub(crate) docid: BPlusTree,
    /// Pair id -> (sym, prefix), for prefix-pattern filtering.
    pub(crate) pairs: Vec<PairKey>,
    pub(crate) build_stats: VistBuildStats,
}

pub(crate) fn dancestor_key(sym: Sym, prefix: &[Sym], left: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(12 + prefix.len() * 4);
    k.extend_from_slice(&sym.0.to_be_bytes());
    for s in prefix {
        k.extend_from_slice(&s.0.to_be_bytes());
    }
    k.extend_from_slice(&left.to_be_bytes());
    k
}

impl VistIndex {
    /// Builds the index.
    pub fn build(pool: Arc<BufferPool>, collection: &Collection) -> Result<Self> {
        let mut pair_ids: HashMap<PairKey, u32> = HashMap::new();
        let mut pairs: Vec<PairKey> = Vec::new();
        let mut paths: Vec<(Vec<u32>, u32)> = Vec::with_capacity(collection.len());
        let mut total_seq_len = 0u64;
        let mut key_bytes = 0u64;

        for (doc, tree) in collection.iter() {
            let seq = structure_encode(tree);
            total_seq_len += seq.len() as u64;
            let ids: Vec<u32> = seq
                .into_iter()
                .map(|pk| {
                    key_bytes += 4 + 4 * pk.prefix.len() as u64;
                    *pair_ids.entry(pk.clone()).or_insert_with(|| {
                        pairs.push(pk);
                        (pairs.len() - 1) as u32
                    })
                })
                .collect();
            paths.push((ids, doc));
        }
        // PRIX's virtual trie over the pair-id alphabet, labeled by the
        // segments' streaming labeler; ViST prunes by no gap.
        let zeros = vec![0; paths.iter().map(|(p, _)| p.len()).max().unwrap_or(0)];
        let (tags, doc_ends, trie) = label_paths(
            paths
                .iter()
                .map(|(p, doc)| (&p[..], &zeros[..p.len()], *doc)),
        );

        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = tags
            .iter()
            .map(|t| {
                let pk = &pairs[t.sym as usize];
                let mut v = Vec::with_capacity(12);
                v.extend_from_slice(&t.right.to_le_bytes());
                v.extend_from_slice(&t.sym.to_le_bytes());
                (dancestor_key(pk.sym, &pk.prefix, t.left), v)
            })
            .collect();
        entries.sort();
        let dancestor = BPlusTree::bulk_load(Arc::clone(&pool), entries, 0.9)?;

        let mut doc_entries: Vec<(Vec<u8>, Vec<u8>)> = doc_ends
            .iter()
            .map(|e| (e.left.to_be_bytes().to_vec(), e.doc.to_le_bytes().to_vec()))
            .collect();
        doc_entries.sort();
        let docid = BPlusTree::bulk_load(Arc::clone(&pool), doc_entries, 0.9)?;

        let build_stats = VistBuildStats {
            unique_keys: pairs.len(),
            trie_nodes: trie.nodes as usize,
            total_seq_len,
            key_bytes,
        };
        Ok(VistIndex {
            pool,
            dancestor,
            docid,
            pairs,
            build_stats,
        })
    }

    /// Build-time statistics.
    pub fn build_stats(&self) -> &VistBuildStats {
        &self.build_stats
    }

    /// The buffer pool the index reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}
