//! The value-predicate secondary index ("valix").
//!
//! PRIX matches structure; this module adds the standard companion of
//! a structural XML index: a content index over leaf values, in the
//! GiST mold — a balanced tree whose keys are *opclass-encoded*
//! predicate summaries rather than raw bytes. Two opclasses ship:
//!
//! * **numeric** — leaf texts that parse as `f64`, stored under an
//!   order-preserving 8-byte transform so B⁺-tree range scans answer
//!   `< <= > >= =` directly;
//! * **string** — raw leaf bytes (memcmp order = lexicographic), so a
//!   prefix is a contiguous key range and `=`/`starts-with` are point
//!   and prefix scans.
//!
//! Keys are prefixed with the *parent element tag*, so a predicate
//! `[price < 10]` only scans `price` values. Every key maps to a
//! `(doc, leaf postorder)` posting. The trees live in the same WAL'd
//! buffer pool as the structural B⁺-trees, so the index inherits crash
//! safety and epoch-pinned snapshot isolation with zero extra
//! machinery: an `EngineSnapshot` clones the [`Valix`] handle and its
//! epoch pin serves the frozen pages.
//!
//! Matching is **label-based**, mirroring the structural engines: a
//! childless element and a text node with the same label are
//! indistinguishable to Prüfer matching, so valix indexes the label of
//! *every* leaf under its parent's tag. The probe is a conservative
//! pre-filter (a superset of the satisfying documents); the
//! authoritative check is [`PredEval::matches`], which verifies each
//! refined embedding positionally. Filtered results are therefore
//! exactly the post-filtered unfiltered results, with or without a
//! usable probe.

use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;

use prix_storage::{BPlusTree, BufferPool, RecordId, RecordStore};
use prix_xml::{DocId, PostNum, Sym, SymbolTable, XmlTree};

use crate::index::{DocData, IndexError, Result};
use crate::query::{PredOp, PredValue, TwigQuery, ValuePred};

/// String keys are truncated to this many value bytes. Truncation is
/// sound because equal prefixes collide *toward more postings* (the
/// probe stays a superset) and verification compares full strings.
pub const STR_KEY_CAP: usize = 256;

const META_MAGIC: &[u8; 4] = b"VLX1";

/// Order-preserving `f64` → `u64` transform (sign bit flipped for
/// positives, all bits flipped for negatives), `-0.0` collapsed onto
/// `0.0` so IEEE equality and key equality agree. NaNs are never
/// indexed.
fn encode_f64(v: f64) -> [u8; 8] {
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits();
    let flipped = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    flipped.to_be_bytes()
}

/// Numeric-opclass key: tag(4, BE) ++ encoded value(8, BE).
fn num_key(tag: Sym, v: f64) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..4].copy_from_slice(&tag.0.to_be_bytes());
    k[4..].copy_from_slice(&encode_f64(v));
    k
}

/// String-opclass key: tag(4, BE) ++ value bytes (truncated).
fn str_key(tag: Sym, s: &str) -> Vec<u8> {
    let bytes = s.as_bytes();
    let take = floor_char_boundary(s, STR_KEY_CAP);
    let mut k = Vec::with_capacity(4 + take);
    k.extend_from_slice(&tag.0.to_be_bytes());
    k.extend_from_slice(&bytes[..take]);
    k
}

/// Largest byte length `<= cap` that is a char boundary of `s`.
fn floor_char_boundary(s: &str, cap: usize) -> usize {
    if s.len() <= cap {
        return s.len();
    }
    let mut i = cap;
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Posting payload: doc(4, LE) ++ leaf postorder(4, LE).
fn posting(doc: DocId, post: PostNum) -> [u8; 8] {
    let mut v = [0u8; 8];
    v[..4].copy_from_slice(&doc.to_le_bytes());
    v[4..].copy_from_slice(&post.to_le_bytes());
    v
}

fn posting_doc(v: &[u8]) -> DocId {
    u32::from_le_bytes([v[0], v[1], v[2], v[3]])
}

/// One leaf occurrence destined for the valix (the bulk-build path
/// collects these while documents stream past).
#[derive(Debug, Clone)]
pub struct ValixEntry {
    /// Tag of the leaf's parent element.
    pub tag: Sym,
    /// The leaf's label text.
    pub value: String,
    /// Document id (global).
    pub doc: DocId,
    /// The leaf's postorder number in the original document.
    pub post: PostNum,
}

/// Counters from probing the valix for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Index probes issued (one per probeable predicate).
    pub probes: u64,
    /// Postings scanned across all probes.
    pub postings: u64,
}

/// The value index proper. `Clone` snapshots the handles (tree roots,
/// counters): clones share pages through the pool, and a clone taken
/// under an epoch pin reads the frozen bytes of its epoch — exactly
/// the [`crate::index::PrixIndex`] contract.
#[derive(Clone)]
pub struct Valix {
    /// Numeric opclass.
    num: BPlusTree,
    /// String opclass.
    strs: BPlusTree,
    store: RecordStore,
    /// Documents `[0, covered)` have their leaves indexed. The probe is
    /// only trusted for those; [`PredEval::allows`] admits any doc at or
    /// past the horizon.
    covered: DocId,
    num_postings: u64,
    str_postings: u64,
    /// Last metadata record written by [`Valix::save`] with its exact
    /// bytes, so an unchanged valix reuses the record (the
    /// `PrixIndex::save` idiom).
    saved_meta: Option<(RecordId, Vec<u8>)>,
}

impl Valix {
    /// Creates an empty valix in `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(Valix {
            num: BPlusTree::create(Arc::clone(&pool))?,
            strs: BPlusTree::create(Arc::clone(&pool))?,
            store: RecordStore::create(pool)?,
            covered: 0,
            num_postings: 0,
            str_postings: 0,
            saved_meta: None,
        })
    }

    /// Documents whose leaves are indexed (`[0, covered)`).
    pub fn covered(&self) -> DocId {
        self.covered
    }

    /// `(numeric postings, string postings)` indexed so far.
    pub fn posting_counts(&self) -> (u64, u64) {
        (self.num_postings, self.str_postings)
    }

    /// Indexes every leaf of `tree` as document `doc`. Documents must
    /// arrive in id order with no gaps — the coverage horizon is what
    /// makes partial indexes safe to probe.
    pub fn index_tree(&mut self, tree: &XmlTree, doc: DocId, syms: &SymbolTable) -> Result<()> {
        debug_assert_eq!(doc, self.covered, "valix documents must arrive in order");
        for node in tree.nodes() {
            if !tree.is_leaf(node) || node == tree.root() {
                continue;
            }
            let post = tree.postorder(node);
            let parent = tree.parent_post(post).expect("non-root leaf has a parent");
            let tag = tree.label_at(parent);
            self.add_value(tag, syms.name(tree.label(node)), doc, post)?;
        }
        self.covered = doc + 1;
        Ok(())
    }

    /// Indexes one leaf occurrence: always into the string opclass, and
    /// into the numeric one too when the text parses as a (non-NaN)
    /// `f64`.
    fn add_value(&mut self, tag: Sym, value: &str, doc: DocId, post: PostNum) -> Result<()> {
        let p = posting(doc, post);
        if let Ok(v) = value.parse::<f64>() {
            if !v.is_nan() {
                self.num.insert(&num_key(tag, v), &p)?;
                self.num_postings += 1;
            }
        }
        self.strs.insert(&str_key(tag, value), &p)?;
        self.str_postings += 1;
        Ok(())
    }

    /// Bulk-builds a valix from collected entries (the `prix index
    /// --bulk` path). `n_docs` sets the coverage horizon.
    pub fn build_bulk(
        pool: Arc<BufferPool>,
        entries: &[ValixEntry],
        n_docs: DocId,
    ) -> Result<Self> {
        let mut nums: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut strs: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(entries.len());
        for e in entries {
            let p = posting(e.doc, e.post).to_vec();
            if let Ok(v) = e.value.parse::<f64>() {
                if !v.is_nan() {
                    nums.push((num_key(e.tag, v).to_vec(), p.clone()));
                }
            }
            strs.push((str_key(e.tag, &e.value), p));
        }
        nums.sort();
        strs.sort();
        let (num_postings, str_postings) = (nums.len() as u64, strs.len() as u64);
        Ok(Valix {
            num: BPlusTree::bulk_load(Arc::clone(&pool), nums, 0.9)?,
            strs: BPlusTree::bulk_load(Arc::clone(&pool), strs, 0.9)?,
            store: RecordStore::create(pool)?,
            covered: n_docs,
            num_postings,
            str_postings,
            saved_meta: None,
        })
    }

    /// Copies every posting into `pool` (compaction: the mutable
    /// generation's pool is retired, so the valix migrates page-for-
    /// page into the fresh one).
    pub fn clone_into(&self, pool: Arc<BufferPool>) -> Result<Self> {
        let mut nums: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        self.num.scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
            nums.push((k.to_vec(), v.to_vec()));
            true
        })?;
        let mut strs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        self.strs.scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
            strs.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(Valix {
            num: BPlusTree::bulk_load(Arc::clone(&pool), nums, 0.9)?,
            strs: BPlusTree::bulk_load(Arc::clone(&pool), strs, 0.9)?,
            store: RecordStore::create(pool)?,
            covered: self.covered,
            num_postings: self.num_postings,
            str_postings: self.str_postings,
            saved_meta: None,
        })
    }

    /// Probes one predicate anchored at `tag`, collecting the matching
    /// document ids. Returns `None` when the operator has no index
    /// strategy (`!=`: nearly everything matches, a scan would cost
    /// more than it saves) — the caller falls back to
    /// verification-only.
    pub fn probe_docs(
        &self,
        tag: Sym,
        pred: &ValuePred,
        stats: &mut ProbeStats,
    ) -> Result<Option<HashSet<DocId>>> {
        let mut docs: HashSet<DocId> = HashSet::new();
        let mut seen = 0u64;
        match &pred.value {
            PredValue::Num(lit) => {
                let lit = *lit;
                let (lo, hi) = match pred.op {
                    PredOp::Eq => (num_key(tag, lit), num_key(tag, lit)),
                    PredOp::Lt | PredOp::Le => (num_key(tag, f64::NEG_INFINITY), num_key(tag, lit)),
                    PredOp::Gt | PredOp::Ge => (num_key(tag, lit), num_key(tag, f64::INFINITY)),
                    PredOp::Ne | PredOp::StartsWith => return Ok(None),
                };
                let lo_b = if pred.op == PredOp::Gt {
                    Bound::Excluded(&lo[..])
                } else {
                    Bound::Included(&lo[..])
                };
                let hi_b = if pred.op == PredOp::Lt {
                    Bound::Excluded(&hi[..])
                } else {
                    Bound::Included(&hi[..])
                };
                self.num.scan(lo_b, hi_b, |_k, v| {
                    seen += 1;
                    docs.insert(posting_doc(v));
                    true
                })?;
            }
            PredValue::Str(lit) => match pred.op {
                PredOp::Eq => {
                    let key = str_key(tag, lit);
                    self.strs.scan(
                        Bound::Included(&key[..]),
                        Bound::Included(&key[..]),
                        |_k, v| {
                            seen += 1;
                            docs.insert(posting_doc(v));
                            true
                        },
                    )?;
                }
                PredOp::StartsWith => {
                    // A prefix is a contiguous key range: scan from the
                    // prefix key and stop at the first key that no
                    // longer starts with it.
                    let key = str_key(tag, lit);
                    self.strs
                        .scan(Bound::Included(&key[..]), Bound::Unbounded, |k, v| {
                            if !k.starts_with(&key) {
                                return false;
                            }
                            seen += 1;
                            docs.insert(posting_doc(v));
                            true
                        })?;
                }
                _ => return Ok(None),
            },
        }
        stats.probes += 1;
        stats.postings += seen;
        Ok(Some(docs))
    }

    /// Persists the valix metadata, returning its record id. Byte-
    /// identical metadata reuses the previous record.
    pub fn save(&mut self) -> Result<RecordId> {
        let mut buf = Vec::with_capacity(40);
        buf.extend_from_slice(META_MAGIC);
        buf.extend_from_slice(&self.num.root().to_le_bytes());
        buf.extend_from_slice(&self.strs.root().to_le_bytes());
        buf.extend_from_slice(&self.covered.to_le_bytes());
        buf.extend_from_slice(&self.num_postings.to_le_bytes());
        buf.extend_from_slice(&self.str_postings.to_le_bytes());
        if let Some((id, bytes)) = &self.saved_meta {
            if *bytes == buf {
                return Ok(*id);
            }
        }
        let id = self.store.append(&buf)?;
        self.saved_meta = Some((id, buf));
        Ok(id)
    }

    /// Reopens a valix from its metadata record.
    pub fn load(pool: Arc<BufferPool>, meta: RecordId) -> Result<Self> {
        let store = RecordStore::open(Arc::clone(&pool))?;
        let buf = store.read(meta)?;
        if buf.len() < 40 || &buf[..4] != META_MAGIC {
            return Err(IndexError::Unsupported(
                "corrupt valix metadata record".into(),
            ));
        }
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let num_root = u64_at(4);
        let str_root = u64_at(12);
        let covered = u32::from_le_bytes(buf[20..24].try_into().unwrap());
        let num_postings = u64_at(24);
        let str_postings = u64_at(32);
        Ok(Valix {
            num: BPlusTree::open(Arc::clone(&pool), num_root),
            strs: BPlusTree::open(Arc::clone(&pool), str_root),
            store,
            covered,
            num_postings,
            str_postings,
            saved_meta: Some((meta, buf)),
        })
    }

    /// Full structural walk for `prix fsck`: scans both opclass trees
    /// in key order, checks every key/posting shape, and compares the
    /// entry counts against the persisted counters. Returns
    /// `(numeric, string)` posting counts.
    pub fn verify(&self) -> Result<(u64, u64)> {
        let covered = self.covered;
        let mut bad: Option<String> = None;
        let mut n_num = 0u64;
        self.num.scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
            n_num += 1;
            if k.len() != 12 || v.len() != 8 {
                bad = Some(format!(
                    "numeric entry has key len {} / posting len {}",
                    k.len(),
                    v.len()
                ));
                return false;
            }
            if posting_doc(v) >= covered {
                bad = Some(format!(
                    "numeric posting names doc {} past coverage horizon {}",
                    posting_doc(v),
                    covered
                ));
                return false;
            }
            true
        })?;
        if let Some(msg) = bad {
            return Err(IndexError::Unsupported(format!("valix: {msg}")));
        }
        let mut n_str = 0u64;
        self.strs.scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
            n_str += 1;
            if k.len() < 4 || k.len() > 4 + STR_KEY_CAP || v.len() != 8 {
                bad = Some(format!(
                    "string entry has key len {} / posting len {}",
                    k.len(),
                    v.len()
                ));
                return false;
            }
            if posting_doc(v) >= covered {
                bad = Some(format!(
                    "string posting names doc {} past coverage horizon {}",
                    posting_doc(v),
                    covered
                ));
                return false;
            }
            true
        })?;
        if let Some(msg) = bad {
            return Err(IndexError::Unsupported(format!("valix: {msg}")));
        }
        if n_num != self.num_postings || n_str != self.str_postings {
            return Err(IndexError::Unsupported(format!(
                "valix: posting counts diverge (numeric {n_num} vs {} recorded, \
                 string {n_str} vs {} recorded)",
                self.num_postings, self.str_postings
            )));
        }
        Ok((n_num, n_str))
    }
}

/// A query's predicates resolved for execution: per-predicate accepted
/// symbol sets (the verification side) plus the probed document
/// pre-filter (the pruning side).
///
/// Built once per query at the engine level, then threaded through the
/// executor. The symbol sets come from one pass over the symbol table
/// — bounded by distinct labels, independent of collection size — and
/// make positional verification a pure `Sym` membership test with no
/// string work per candidate.
#[derive(Clone)]
pub struct PredEval {
    /// `(original-query postorder of the predicate node, accepted value
    /// symbols)` per predicate.
    items: Vec<(PostNum, Arc<HashSet<Sym>>)>,
    /// Documents below the coverage horizon that can satisfy every
    /// probeable predicate; `None` when no predicate was probeable
    /// (`!=`-only).
    allowed: Option<HashSet<DocId>>,
    /// The valix coverage horizon at probe time. Documents at or past
    /// it were never indexed, so the pre-filter must admit them.
    covered: DocId,
    /// Probe counters, folded into the query stats by the runner.
    pub probe: ProbeStats,
}

impl PredEval {
    /// Resolves `q`'s predicates against `syms`, probing `valix` for
    /// the document pre-filter. `Ok(None)` when the query has no
    /// predicates.
    pub fn build(q: &TwigQuery, valix: &Valix, syms: &SymbolTable) -> Result<Option<PredEval>> {
        if q.preds().is_empty() {
            return Ok(None);
        }
        let tree = q.tree();
        let mut items = Vec::with_capacity(q.preds().len());
        for p in q.preds() {
            let set: HashSet<Sym> = syms
                .iter()
                .filter(|(_, name)| p.accepts(name))
                .map(|(s, _)| s)
                .collect();
            items.push((tree.postorder(p.node), Arc::new(set)));
        }
        let mut probe = ProbeStats::default();
        let mut allowed: Option<HashSet<DocId>> = None;
        for p in q.preds() {
            let tag = tree.label(p.node);
            if let Some(docs) = valix.probe_docs(tag, p, &mut probe)? {
                allowed = Some(match allowed {
                    None => docs,
                    Some(acc) => acc.intersection(&docs).copied().collect(),
                });
            }
        }
        Ok(Some(PredEval {
            items,
            allowed,
            covered: valix.covered(),
            probe,
        }))
    }

    /// Whether the document pre-filter admits `doc`. Conservative:
    /// `true` whenever the probe cannot rule the document out.
    pub fn allows(&self, doc: DocId) -> bool {
        match &self.allowed {
            None => true,
            Some(s) => doc >= self.covered || s.contains(&doc),
        }
    }

    /// `(probed docs, coverage horizon)` when a usable probe ran — the
    /// planner's estimated-selectivity numerator and denominator.
    pub fn estimate(&self) -> Option<(usize, DocId)> {
        self.allowed.as_ref().map(|s| (s.len(), self.covered))
    }

    /// This evaluator renumbered for a branch arrangement:
    /// `base_of[arr_post - 1]` maps arrangement postorders back to base
    /// ones (see `crate::arrange::Arrangement`).
    pub fn remap(&self, base_of: &[PostNum]) -> PredEval {
        let items = self
            .items
            .iter()
            .map(|(base_post, set)| {
                let arr_post = base_of
                    .iter()
                    .position(|&b| b == *base_post)
                    .map(|i| (i + 1) as PostNum)
                    .expect("arrangement permutes every base node");
                (arr_post, Arc::clone(set))
            })
            .collect();
        PredEval {
            items,
            allowed: self.allowed.clone(),
            covered: self.covered,
            probe: ProbeStats::default(),
        }
    }

    /// Positionally verifies a refined embedding: every predicate node's
    /// image must have a leaf child whose label symbol is accepted.
    ///
    /// `emb[q - 1]` is the image (original document postorder) of query
    /// node `q`; `data` must have been loaded with leaf data. Extended
    /// documents are walked through their dummy leaves: `dummy → value
    /// node → parent element`, with `lps[dummy - 1]` naming the value
    /// and `orig_map` translating the element back to original
    /// numbering.
    pub(crate) fn matches(&self, data: &DocData, emb: &[PostNum]) -> bool {
        self.items.iter().all(|(qpost, set)| {
            let img = emb[(*qpost - 1) as usize];
            match &data.orig_map {
                None => data.leaves.iter().any(|&(sym, pos)| {
                    pos >= 1
                        && data
                            .nps
                            .get(pos as usize - 1)
                            .map_or(false, |&parent| parent == img)
                        && set.contains(&sym)
                }),
                Some(orig) => data.leaves.iter().any(|&(_, pos)| {
                    let Some(&val_post) = data.nps.get(pos.wrapping_sub(1) as usize) else {
                        return false;
                    };
                    let Some(&elem_post) = data.nps.get(val_post.wrapping_sub(1) as usize) else {
                        return false;
                    };
                    orig.get(elem_post.wrapping_sub(1) as usize) == Some(&img)
                        && data
                            .lps
                            .get(pos.wrapping_sub(1) as usize)
                            .map_or(false, |s| set.contains(s))
                }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::{BufferPool, Pager};

    fn mem_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Pager::in_memory(), 256))
    }

    #[test]
    fn f64_encoding_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e30,
            -2.5,
            -1.0,
            -0.0,
            0.0,
            1e-10,
            1.0,
            2.5,
            10.0,
            1e30,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            let (a, b) = (encode_f64(w[0]), encode_f64(w[1]));
            if w[0] == w[1] {
                assert_eq!(a, b, "{} vs {}", w[0], w[1]);
            } else {
                assert!(a < b, "{} vs {}", w[0], w[1]);
            }
        }
        // -0.0 and 0.0 share one key, matching IEEE equality.
        assert_eq!(encode_f64(-0.0), encode_f64(0.0));
    }

    #[test]
    fn str_key_truncation_is_char_safe() {
        let long = "é".repeat(200); // 400 bytes of 2-byte chars
        let k = str_key(Sym(7), &long);
        assert!(k.len() <= 4 + STR_KEY_CAP);
        assert!(std::str::from_utf8(&k[4..]).is_ok());
    }

    fn pred(op: PredOp, value: PredValue) -> ValuePred {
        ValuePred { node: 0, op, value }
    }

    #[test]
    fn probe_agrees_with_accepts_on_numeric_ranges() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        let tag = Sym(3);
        let values = [
            "0", "-0", "1", "2.5", "9.99", "10", "10.0", "11", "-3", "1e2", "cheap", "inf",
        ];
        for (i, v) in values.iter().enumerate() {
            vx.add_value(tag, v, i as DocId, 1).unwrap();
        }
        vx.covered = values.len() as DocId;
        for op in [PredOp::Eq, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge] {
            for lit in [0.0, 2.5, 10.0, -1.0] {
                let p = pred(op, PredValue::Num(lit));
                let mut stats = ProbeStats::default();
                let got = vx.probe_docs(tag, &p, &mut stats).unwrap().unwrap();
                let want: HashSet<DocId> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| p.accepts(v))
                    .map(|(i, _)| i as DocId)
                    .collect();
                assert_eq!(got, want, "op {op:?} lit {lit}");
            }
        }
        // != has no index strategy.
        let mut stats = ProbeStats::default();
        assert!(vx
            .probe_docs(tag, &pred(PredOp::Ne, PredValue::Num(1.0)), &mut stats)
            .unwrap()
            .is_none());
    }

    #[test]
    fn probe_agrees_with_accepts_on_strings() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        let tag = Sym(5);
        let values = ["x7", "x70", "x8", "ax7", "", "x", "10"];
        for (i, v) in values.iter().enumerate() {
            vx.add_value(tag, v, i as DocId, 1).unwrap();
        }
        vx.covered = values.len() as DocId;
        for p in [
            pred(PredOp::Eq, PredValue::Str("x7".into())),
            pred(PredOp::Eq, PredValue::Str("10".into())),
            pred(PredOp::StartsWith, PredValue::Str("x7".into())),
            pred(PredOp::StartsWith, PredValue::Str("x".into())),
            pred(PredOp::StartsWith, PredValue::Str("".into())),
        ] {
            let mut stats = ProbeStats::default();
            let got = vx.probe_docs(tag, &p, &mut stats).unwrap().unwrap();
            let want: HashSet<DocId> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| p.accepts(v))
                .map(|(i, _)| i as DocId)
                .collect();
            assert_eq!(got, want, "{p:?}");
        }
    }

    #[test]
    fn probe_is_tag_scoped() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        vx.add_value(Sym(1), "5", 0, 1).unwrap();
        vx.add_value(Sym(2), "5", 1, 1).unwrap();
        vx.covered = 2;
        let p = pred(PredOp::Eq, PredValue::Num(5.0));
        let mut stats = ProbeStats::default();
        let got = vx.probe_docs(Sym(1), &p, &mut stats).unwrap().unwrap();
        assert_eq!(got, HashSet::from([0]));
    }

    #[test]
    fn save_load_roundtrip_and_verify() {
        let pool = mem_pool();
        let mut vx = Valix::create(Arc::clone(&pool)).unwrap();
        vx.add_value(Sym(1), "42", 0, 2).unwrap();
        vx.add_value(Sym(1), "hello", 0, 4).unwrap();
        vx.covered = 1;
        let meta = vx.save().unwrap();
        // Unchanged valix reuses the record.
        assert_eq!(vx.save().unwrap().raw(), meta.raw());
        let re = Valix::load(pool, meta).unwrap();
        assert_eq!(re.covered(), 1);
        assert_eq!(re.posting_counts(), (1, 2));
        assert_eq!(re.verify().unwrap(), (1, 2));
    }

    #[test]
    fn verify_catches_horizon_violations() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        vx.add_value(Sym(1), "1", 5, 1).unwrap();
        vx.covered = 1; // posting names doc 5: corrupt
        assert!(vx.verify().is_err());
    }

    #[test]
    fn clone_into_migrates_postings() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        for i in 0..50u32 {
            vx.add_value(Sym(1), &format!("{i}"), i, 1).unwrap();
        }
        vx.covered = 50;
        let fresh = mem_pool();
        let moved = vx.clone_into(fresh).unwrap();
        assert_eq!(moved.covered(), 50);
        assert_eq!(moved.posting_counts(), vx.posting_counts());
        let p = pred(PredOp::Lt, PredValue::Num(10.0));
        let mut stats = ProbeStats::default();
        let got = moved.probe_docs(Sym(1), &p, &mut stats).unwrap().unwrap();
        assert_eq!(got.len(), 10);
        moved.verify().unwrap();
    }
}
