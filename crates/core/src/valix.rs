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
//! `(doc, leaf postorder)` posting. The trees live in the same buffer
//! pool as the structural B⁺-trees, so the index inherits epoch-pinned
//! snapshot isolation with zero extra machinery: an `EngineSnapshot`
//! clones the [`Valix`] handle and its epoch pin serves the frozen
//! pages — and, like the structural delta, it is rebuilt on reopen by
//! replaying the batch log.
//!
//! The index is **tiered** like the structural ones: every immutable
//! segment tier carries a *value run* (`prix_storage::ValueRunReader`,
//! a sorted, packed file holding the postings of exactly the tier's
//! documents) and the pool-resident tree pair of [`Valix`] covers only
//! the mutable delta. Run keys are byte for byte the tree keys, so one
//! set of scan bounds serves both ([`Valix::probe_docs`]); tiers
//! partition the document ids below the delta, so the per-tier answers
//! are disjoint and their union is the probe's.
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

use prix_storage::{
    BPlusTree, BufferPool, RawStore, ValueRunBuilder, VxEntry, VxSection, VX_MAX_KEY_LEN,
};
use prix_xml::{DocId, PostNum, Sym, SymbolTable, XmlTree};

use crate::engine::SegTier;
use crate::index::{DocData, IndexError, Result};
use crate::query::{PredOp, PredValue, TwigQuery, ValuePred};

/// String keys are truncated to this many value bytes. Truncation is
/// sound because equal prefixes collide *toward more postings* (the
/// probe stays a superset) and verification compares full strings.
pub const STR_KEY_CAP: usize = 256;

// A run stores what the trees store: its key bound is this one's.
const _: () = assert!(4 + STR_KEY_CAP == VX_MAX_KEY_LEN);

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

fn posting_post(v: &[u8]) -> PostNum {
    u32::from_le_bytes([v[4], v[5], v[6], v[7]])
}

/// The keys one leaf occurrence is indexed under: always one in the
/// string opclass, and one in the numeric opclass too when the text
/// parses as a (non-NaN) `f64`.
fn opclass_keys(tag: Sym, value: &str) -> (Option<[u8; 12]>, Vec<u8>) {
    let num = value
        .parse::<f64>()
        .ok()
        .filter(|v| !v.is_nan())
        .map(|v| num_key(tag, v));
    (num, str_key(tag, value))
}

/// The run entries of one leaf occurrence (the bulk path sorts these
/// into the bulk tier's value run).
pub(crate) fn run_entries(
    tag: Sym,
    value: &str,
    doc: DocId,
    post: PostNum,
) -> impl Iterator<Item = VxEntry> {
    let (num, strs) = opclass_keys(tag, value);
    let entry = move |section, key| VxEntry {
        section,
        key,
        doc,
        post,
    };
    num.map(|k| entry(VxSection::Num, k.to_vec()))
        .into_iter()
        .chain([entry(VxSection::Str, strs)])
}

/// Counters from probing the valix for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Index probes issued (one per probeable predicate).
    pub probes: u64,
    /// Postings scanned across all probes.
    pub postings: u64,
}

/// The mutable delta of the value index: the opclass trees over the
/// documents no segment tier holds yet. `Clone` snapshots the handles
/// (tree roots, counters): clones share pages through the pool, and a
/// clone taken under an epoch pin reads the frozen bytes of its epoch —
/// exactly the [`crate::index::PrixIndex`] contract.
///
/// Coverage invariant: the tiers' runs partition `[0, delta_base)`, the
/// trees here hold the leaves of `[delta_base, covered)`, and that is
/// every document the engine has ([`Valix::write_run`] checks it at
/// compaction).
#[derive(Clone)]
pub struct Valix {
    /// Numeric opclass.
    num: BPlusTree,
    /// String opclass.
    strs: BPlusTree,
    /// First document of the delta: where the segment tiers end.
    delta_base: DocId,
    /// Documents indexed here, `[delta_base, delta_base + delta_docs)`.
    delta_docs: DocId,
    num_postings: u64,
    str_postings: u64,
}

impl Valix {
    /// Creates an empty valix in `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(Valix {
            num: BPlusTree::create(Arc::clone(&pool))?,
            strs: BPlusTree::create(pool)?,
            delta_base: 0,
            delta_docs: 0,
            num_postings: 0,
            str_postings: 0,
        })
    }

    /// The coverage horizon: documents `[0, covered)` have their leaves
    /// indexed, in a tier's run or in the delta's trees.
    pub fn covered(&self) -> DocId {
        self.delta_base + self.delta_docs
    }

    /// First document of the delta.
    pub fn delta_base(&self) -> DocId {
        self.delta_base
    }

    /// `(numeric postings, string postings)` in the delta.
    pub fn posting_counts(&self) -> (u64, u64) {
        (self.num_postings, self.str_postings)
    }

    /// Places the empty delta behind the segment tiers, which end at
    /// `delta_base` (the structural indexes' `set_doc_base`).
    pub(crate) fn set_delta_base(&mut self, delta_base: DocId) {
        debug_assert_eq!(self.delta_docs, 0, "only an empty delta moves");
        self.delta_base = delta_base;
    }

    /// Indexes every leaf of `tree` as document `doc`. Documents must
    /// arrive in id order with no gaps — the coverage horizon is what
    /// makes the probe safe to trust.
    pub fn index_tree(&mut self, tree: &XmlTree, doc: DocId, syms: &SymbolTable) -> Result<()> {
        // Every insert path keeps the lockstep with the structural
        // delta; a gap here would be a hole in the pre-filter that
        // nothing reports.
        assert_eq!(doc, self.covered(), "valix documents arrive in order");
        for node in tree.nodes() {
            if !tree.is_leaf(node) || node == tree.root() {
                continue;
            }
            let post = tree.postorder(node);
            let parent = tree.parent_post(post).expect("non-root leaf has a parent");
            let tag = tree.label_at(parent);
            self.add_value(tag, syms.name(tree.label(node)), doc, post)?;
        }
        self.delta_docs += 1;
        Ok(())
    }

    /// Indexes one leaf occurrence under its [`opclass_keys`].
    fn add_value(&mut self, tag: Sym, value: &str, doc: DocId, post: PostNum) -> Result<()> {
        let p = posting(doc, post);
        let (num, strs) = opclass_keys(tag, value);
        if let Some(k) = num {
            self.num.insert(&k, &p)?;
            self.num_postings += 1;
        }
        self.strs.insert(&strs, &p)?;
        self.str_postings += 1;
        Ok(())
    }

    fn tree(&self, section: VxSection) -> &BPlusTree {
        match section {
            VxSection::Num => &self.num,
            VxSection::Str => &self.strs,
        }
    }

    /// Streams the delta into the value run of the tier a compaction is
    /// folding it into: both trees, already in key order, straight into
    /// the builder. Only the postings of one key at a time are held, to
    /// put them in `(doc, post)` order: `BPlusTree::insert` leaves the
    /// order among equal keys unspecified (and insertion order would be
    /// arena order within a document, not postorder).
    /// `mutable_docs` is what the structural delta holds; a delta that
    /// covers anything else is refused.
    pub(crate) fn write_run(&self, out: Box<dyn RawStore>, mutable_docs: usize) -> Result<()> {
        if self.delta_docs as usize != mutable_docs {
            return Err(IndexError::Unsupported(format!(
                "value index covers {} delta document(s) but the delta holds {mutable_docs}",
                self.delta_docs
            )));
        }
        let mut b = ValueRunBuilder::new(out, self.delta_base, self.delta_docs);
        for section in [VxSection::Num, VxSection::Str] {
            let mut key: Vec<u8> = Vec::new();
            let mut postings: Vec<(DocId, PostNum)> = Vec::new();
            let mut flush = |key: &[u8], postings: &mut Vec<(DocId, PostNum)>| {
                postings.sort_unstable();
                postings
                    .drain(..)
                    .try_for_each(|(doc, post)| b.push(section, key, doc, post))
            };
            let mut pushed = Ok(());
            self.tree(section)
                .scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
                    if k != key.as_slice() {
                        pushed = flush(&key, &mut postings);
                        key.clear();
                        key.extend_from_slice(k);
                    }
                    postings.push((posting_doc(v), posting_post(v)));
                    pushed.is_ok()
                })?;
            pushed?;
            flush(&key, &mut postings)?;
        }
        Ok(b.finish()?)
    }

    /// Scans one opclass over every tier's run, then the delta's tree,
    /// with the contract of `BPlusTree::scan` per source: `f` returning
    /// `false` ends the source it was reading, not the whole scan.
    fn scan(
        &self,
        tiers: &[SegTier],
        section: VxSection,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        for t in tiers {
            t.vx.scan(section, lo, hi, &mut f)?;
        }
        Ok(self.tree(section).scan(lo, hi, &mut f)?)
    }

    /// Probes one predicate anchored at `tag` over the tiers' runs and
    /// the delta, collecting the matching document ids. Returns `None`
    /// when the operator has no index strategy (`!=`: nearly everything
    /// matches, a scan would cost more than it saves) — the caller
    /// falls back to verification-only.
    pub fn probe_docs(
        &self,
        tiers: &[SegTier],
        tag: Sym,
        pred: &ValuePred,
        stats: &mut ProbeStats,
    ) -> Result<Option<HashSet<DocId>>> {
        let mut docs: HashSet<DocId> = HashSet::new();
        let mut seen = 0u64;
        let mut collect = |_k: &[u8], v: &[u8]| {
            seen += 1;
            docs.insert(posting_doc(v));
            true
        };
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
                self.scan(tiers, VxSection::Num, lo_b, hi_b, collect)?;
            }
            PredValue::Str(lit) => {
                let key = str_key(tag, lit);
                match pred.op {
                    PredOp::Eq => self.scan(
                        tiers,
                        VxSection::Str,
                        Bound::Included(&key[..]),
                        Bound::Included(&key[..]),
                        collect,
                    )?,
                    PredOp::StartsWith => {
                        // A prefix is a contiguous key range: scan from
                        // the prefix key, stop at the first key that no
                        // longer starts with it. The next tag's first
                        // possible key bounds the range above, which is
                        // what lets a run that lacks the tag skip the
                        // scan.
                        let next_tag = tag.0.checked_add(1).map(u32::to_be_bytes);
                        let hi_b = next_tag
                            .as_ref()
                            .map_or(Bound::Unbounded, |t| Bound::Excluded(&t[..]));
                        self.scan(
                            tiers,
                            VxSection::Str,
                            Bound::Included(&key[..]),
                            hi_b,
                            |k, v| k.starts_with(&key) && collect(k, v),
                        )?;
                    }
                    _ => return Ok(None),
                }
            }
        }
        stats.probes += 1;
        stats.postings += seen;
        Ok(Some(docs))
    }

    /// Full structural walk of the delta for `prix fsck`: scans both
    /// opclass trees in key order, checks every key/posting shape and
    /// that every posting names a document of the delta
    /// (`[delta_base, covered)`), and compares the entry counts against
    /// the counters kept on insert. Returns `(numeric, string)` posting
    /// counts. (The tiers' runs have their own
    /// `prix_storage::ValueRunReader::verify`.)
    pub fn verify(&self) -> Result<(u64, u64)> {
        let docs = self.delta_base..self.covered();
        let mut counts = [0u64; 2];
        for (section, count) in [VxSection::Num, VxSection::Str]
            .into_iter()
            .zip(&mut counts)
        {
            let name = section.name();
            let mut bad: Option<String> = None;
            self.tree(section)
                .scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
                    *count += 1;
                    if !section.key_len_ok(k.len()) || v.len() != 8 {
                        bad = Some(format!(
                            "{name} entry has key len {} / posting len {}",
                            k.len(),
                            v.len()
                        ));
                    } else if !docs.contains(&posting_doc(v)) {
                        bad = Some(format!(
                            "{name} posting names doc {} outside the delta {}..{}",
                            posting_doc(v),
                            docs.start,
                            docs.end
                        ));
                    }
                    bad.is_none()
                })?;
            if let Some(msg) = bad {
                return Err(IndexError::Unsupported(format!("valix: {msg}")));
            }
        }
        let [n_num, n_str] = counts;
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
    /// Resolves `q`'s predicates against `syms`, probing the value
    /// index — the runs of `tiers`, then the delta `valix` — for the
    /// document pre-filter. `Ok(None)` when the query has no
    /// predicates.
    pub fn build(
        q: &TwigQuery,
        tiers: &[SegTier],
        valix: &Valix,
        syms: &SymbolTable,
    ) -> Result<Option<PredEval>> {
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
            if let Some(docs) = valix.probe_docs(tiers, tag, p, &mut probe)? {
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
                            .is_some_and(|&parent| parent == img)
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
                            .is_some_and(|s| set.contains(s))
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
        vx.delta_docs = values.len() as DocId;
        for op in [PredOp::Eq, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge] {
            for lit in [0.0, 2.5, 10.0, -1.0] {
                let p = pred(op, PredValue::Num(lit));
                let mut stats = ProbeStats::default();
                let got = vx.probe_docs(&[], tag, &p, &mut stats).unwrap().unwrap();
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
            .probe_docs(&[], tag, &pred(PredOp::Ne, PredValue::Num(1.0)), &mut stats)
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
        vx.delta_docs = values.len() as DocId;
        for p in [
            pred(PredOp::Eq, PredValue::Str("x7".into())),
            pred(PredOp::Eq, PredValue::Str("10".into())),
            pred(PredOp::StartsWith, PredValue::Str("x7".into())),
            pred(PredOp::StartsWith, PredValue::Str("x".into())),
            pred(PredOp::StartsWith, PredValue::Str("".into())),
        ] {
            let mut stats = ProbeStats::default();
            let got = vx.probe_docs(&[], tag, &p, &mut stats).unwrap().unwrap();
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
        vx.delta_docs = 2;
        let p = pred(PredOp::Eq, PredValue::Num(5.0));
        let mut stats = ProbeStats::default();
        let got = vx.probe_docs(&[], Sym(1), &p, &mut stats).unwrap().unwrap();
        assert_eq!(got, HashSet::from([0]));
    }

    #[test]
    fn verify_counts_what_the_inserts_counted() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        vx.add_value(Sym(1), "42", 0, 2).unwrap();
        vx.add_value(Sym(1), "hello", 0, 4).unwrap();
        vx.delta_docs = 1;
        assert_eq!(vx.covered(), 1);
        assert_eq!(vx.posting_counts(), (1, 2));
        assert_eq!(vx.verify().unwrap(), (1, 2));
        vx.str_postings += 1;
        assert!(
            vx.verify().is_err(),
            "a count that disagrees with the trees"
        );
    }

    #[test]
    fn verify_catches_horizon_violations() {
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        vx.add_value(Sym(1), "1", 5, 1).unwrap();
        vx.delta_docs = 1; // posting names doc 5: corrupt
        assert!(vx.verify().is_err());
        // A posting below the delta belongs to a tier's run.
        vx.delta_docs = 6;
        vx.verify().unwrap();
        vx.delta_base = 6;
        assert!(vx.verify().is_err());
    }

    #[test]
    fn write_run_streams_the_delta_in_run_order() {
        use prix_storage::{IoStats, MemStore, ValueRunReader};
        let pool = mem_pool();
        let mut vx = Valix::create(pool).unwrap();
        vx.delta_base = 100;
        // Equal keys across documents (enough of them to split leaves
        // between equals), and within one in arena order (the later
        // leaf first): the run sorts each key's postings.
        for i in 0..3000u32 {
            vx.add_value(Sym(1), &format!("{}", i % 7), 100 + i, 3)
                .unwrap();
            vx.add_value(Sym(1), &format!("{}", i % 7), 100 + i, 1)
                .unwrap();
            vx.add_value(Sym(2), "word", 100 + i, 5).unwrap();
        }
        vx.delta_docs = 3000;
        let store = MemStore::new();
        assert!(
            vx.write_run(Box::new(store.clone()), 2999).is_err(),
            "a delta that covers other documents than the structural one is refused"
        );
        vx.write_run(Box::new(store.clone()), 3000).unwrap();
        let run = ValueRunReader::open(Box::new(store), Arc::new(IoStats::new())).unwrap();
        assert_eq!((run.doc_base(), run.n_docs()), (100, 3000));
        assert_eq!(run.posting_counts(), vx.posting_counts());
        let check = run.verify().unwrap();
        assert_eq!((check.num_postings, check.str_postings), (6000, 9000));
        for section in [VxSection::Num, VxSection::Str] {
            let mut from_tree = Vec::new();
            vx.tree(section)
                .scan(Bound::Unbounded, Bound::Unbounded, |k, v| {
                    from_tree.push((k.to_vec(), v.to_vec()));
                    true
                })
                .unwrap();
            let mut from_run = Vec::new();
            run.scan(section, Bound::Unbounded, Bound::Unbounded, |k, v| {
                from_run.push((k.to_vec(), v.to_vec()));
                true
            })
            .unwrap();
            let in_run_order =
                |e: &(Vec<u8>, Vec<u8>)| (e.0.clone(), posting_doc(&e.1), posting_post(&e.1));
            assert!(
                section == VxSection::Str
                    || !from_tree
                        .windows(2)
                        .all(|w| in_run_order(&w[0]) < in_run_order(&w[1])),
                "the numeric tree was meant to hold equals out of (doc, post) order"
            );
            from_tree.sort_by_key(in_run_order);
            assert_eq!(from_run, from_tree, "{section:?}");
        }
    }
}
