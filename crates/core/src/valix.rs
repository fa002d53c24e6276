//! The value-predicate secondary index ("valix").
//!
//! PRIX matches structure; this module adds the standard companion of
//! a structural XML index: a content index over leaf values, in the
//! GiST mold — a balanced tree whose keys are *opclass-encoded*
//! predicate summaries rather than raw bytes. Two opclasses ship:
//!
//! * **numeric** — leaf texts that parse as `f64`, stored under an
//!   order-preserving 8-byte transform so ordered range scans answer
//!   `< <= > >= =` directly;
//! * **string** — raw leaf bytes (memcmp order = lexicographic), so a
//!   prefix is a contiguous key range and `=`/`starts-with` are point
//!   and prefix scans.
//!
//! Keys are prefixed with the *parent element tag*, so a predicate
//! `[price < 10]` only scans `price` values. Every key maps to
//! `(doc, leaf postorder)` postings. The delta keeps them in two ordered
//! maps in memory, read like the structural delta's: an
//! `EngineSnapshot` clones the [`Valix`] handle, which shares the maps
//! and skips the postings of documents past its own coverage horizon —
//! and, like the structural delta, they are rebuilt on reopen by
//! replaying the batch log.
//!
//! The index is **tiered** like the structural ones: every immutable
//! segment tier carries a *value run* (`prix_storage::ValueRunReader`,
//! a sorted, packed file holding the postings of exactly the tier's
//! documents) and the map pair of [`Valix`] covers only the mutable
//! delta. Run keys are byte for byte the map keys, so one set of scan
//! bounds serves both ([`Valix::probe_docs`]); tiers partition the
//! document ids below the delta, so the per-tier answers are disjoint
//! and their union is the probe's.
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

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::sync::{Arc, RwLock};

use prix_storage::{RawStore, ValueRunBuilder, VxEntry, VxSection, VX_MAX_KEY_LEN};
use prix_xml::{DocId, PostNum, Sym, SymbolTable, XmlTree};

use crate::engine::SegTier;
use crate::index::{half_changed, DocData, IndexError, Result};
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

/// One opclass of the delta: key → its `(doc, leaf postorder)`
/// postings, ascending.
type Postings = BTreeMap<Vec<u8>, Vec<(DocId, PostNum)>>;

/// Files `(doc, post)` under `key` in `(doc, post)` order: documents
/// arrive in id order, but a document's leaves in arena order, not
/// postorder.
fn file_posting(map: &mut Postings, key: Vec<u8>, doc: DocId, post: PostNum) {
    let postings = map.entry(key).or_default();
    let at = postings.partition_point(|&p| p < (doc, post));
    postings.insert(at, (doc, post));
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

/// The mutable delta of the value index: the opclass maps over the
/// documents no segment tier holds yet. `Clone` takes a view, as
/// [`crate::index::PrixIndex`]'s does: the clone shares the maps and
/// keeps its own coverage horizon and counters, and its scans skip
/// every posting of a document at or past [`Valix::covered`].
///
/// Coverage invariant: the tiers' runs partition `[0, delta_base)`, the
/// maps here hold the leaves of `[delta_base, covered)`, and that is
/// every document the engine has ([`Valix::write_run`] checks it at
/// compaction).
#[derive(Clone)]
pub struct Valix {
    /// The opclass maps by [`VxSection`] (numeric, string), shared by
    /// the writer and every view under one lock an insert holds for a
    /// whole document.
    trees: Arc<RwLock<[Postings; 2]>>,
    /// First document of the delta: where the segment tiers end.
    delta_base: DocId,
    /// Documents indexed here, `[delta_base, delta_base + delta_docs)`.
    delta_docs: DocId,
    num_postings: u64,
    str_postings: u64,
}

impl Valix {
    /// Creates an empty valix.
    pub fn create() -> Self {
        Valix {
            trees: Arc::default(),
            delta_base: 0,
            delta_docs: 0,
            num_postings: 0,
            str_postings: 0,
        }
    }

    /// The coverage horizon: documents `[0, covered)` have their leaves
    /// indexed, in a tier's run or in the delta's maps.
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
        let trees = Arc::clone(&self.trees);
        let mut trees = trees.write().map_err(half_changed)?;
        for node in tree.nodes() {
            if !tree.is_leaf(node) || node == tree.root() {
                continue;
            }
            let post = tree.postorder(node);
            let parent = tree.parent_post(post).expect("non-root leaf has a parent");
            let tag = tree.label_at(parent);
            self.add_value(&mut trees, tag, syms.name(tree.label(node)), doc, post);
        }
        self.delta_docs += 1;
        Ok(())
    }

    /// Indexes one leaf occurrence under its [`opclass_keys`] in
    /// `trees`, this delta's, write-locked.
    fn add_value(
        &mut self,
        trees: &mut [Postings; 2],
        tag: Sym,
        value: &str,
        doc: DocId,
        post: PostNum,
    ) {
        let (num, strs) = opclass_keys(tag, value);
        if let Some(k) = num {
            file_posting(&mut trees[VxSection::Num as usize], k.to_vec(), doc, post);
            self.num_postings += 1;
        }
        file_posting(&mut trees[VxSection::Str as usize], strs, doc, post);
        self.str_postings += 1;
    }

    /// Streams the delta into the value run of the tier a compaction is
    /// folding it into: both maps, in run order already, straight into
    /// the builder. `mutable_docs` is what the structural delta holds; a
    /// delta that covers anything else is refused.
    pub(crate) fn write_run(&self, out: Box<dyn RawStore>, mutable_docs: usize) -> Result<()> {
        if self.delta_docs as usize != mutable_docs {
            return Err(IndexError::Unsupported(format!(
                "value index covers {} delta document(s) but the delta holds {mutable_docs}",
                self.delta_docs
            )));
        }
        let mut b = ValueRunBuilder::new(out, self.delta_base, self.delta_docs);
        let trees = self.trees.read().map_err(half_changed)?;
        for section in [VxSection::Num, VxSection::Str] {
            for (key, postings) in &trees[section as usize] {
                for &(doc, post) in postings {
                    b.push(section, key, doc, post)?;
                }
            }
        }
        Ok(b.finish()?)
    }

    /// Scans one opclass over every tier's run, then the delta, with
    /// the contract of `ValueRunReader::scan` per source: `f(key, doc)`
    /// returning `false` ends the source it was reading, not the whole
    /// scan. The delta's postings past this handle's horizon never
    /// reach `f`.
    fn scan(
        &self,
        tiers: &[SegTier],
        section: VxSection,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], DocId) -> bool,
    ) -> Result<()> {
        for t in tiers {
            t.vx.scan(section, lo, hi, |k, doc, _| f(k, doc))?;
        }
        let covered = self.covered();
        let trees = self.trees.read().map_err(half_changed)?;
        let past_hi = |k: &[u8]| match hi {
            Bound::Included(h) => k > h,
            Bound::Excluded(h) => k >= h,
            Bound::Unbounded => false,
        };
        // Bounded below only: `BTreeMap::range` panics on bounds that
        // cross, where a scan answers nothing.
        let from = trees[section as usize].range::<[u8], _>((lo, Bound::Unbounded));
        for (key, postings) in from.take_while(|(k, _)| !past_hi(k)) {
            for &(doc, _) in postings.iter().take_while(|&&(doc, _)| doc < covered) {
                if !f(key, doc) {
                    return Ok(());
                }
            }
        }
        Ok(())
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
        let mut collect = |_k: &[u8], doc: DocId| {
            seen += 1;
            docs.insert(doc);
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
                            |k, doc| k.starts_with(&key) && collect(k, doc),
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
    /// opclass maps in key order, checks every key's length and that
    /// every posting names a document of the delta
    /// (`[delta_base, covered)`), and compares the posting counts against
    /// the counters kept on insert. Returns `(numeric, string)` posting
    /// counts. (The tiers' runs have their own
    /// `prix_storage::ValueRunReader::verify`.)
    pub fn verify(&self) -> Result<(u64, u64)> {
        let docs = self.delta_base..self.covered();
        let trees = self.trees.read().map_err(half_changed)?;
        let mut counts = [0u64; 2];
        for (section, count) in [VxSection::Num, VxSection::Str]
            .into_iter()
            .zip(&mut counts)
        {
            let name = section.name();
            for (k, postings) in &trees[section as usize] {
                *count += postings.len() as u64;
                let outside = postings.iter().find(|(doc, _)| !docs.contains(doc));
                let bad = if !section.key_len_ok(k.len()) {
                    format!("{name} entry has key len {}", k.len())
                } else if let Some((doc, _)) = outside {
                    let (start, end) = (docs.start, docs.end);
                    format!("{name} posting names doc {doc} outside the delta {start}..{end}")
                } else {
                    continue;
                };
                return Err(IndexError::Unsupported(format!("valix: {bad}")));
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

/// A query's predicates resolved for execution: the predicates
/// themselves and the symbol table that names leaf labels (the
/// verification side) plus the probed document pre-filter (the pruning
/// side).
///
/// Built once per query at the engine level, then threaded through the
/// executor. Building it costs the value-index probes and nothing in
/// proportion to the symbol table, which on a value-rich collection is
/// mostly leaf values: verification resolves a leaf's label only once
/// the leaf's parent is the embedding's image, so its string work grows
/// with the refined candidates.
#[derive(Clone)]
pub struct PredEval<'s> {
    /// `(original-query postorder of the predicate node, predicate)`
    /// per predicate.
    items: Vec<(PostNum, ValuePred)>,
    /// The table the verified records' leaf label symbols name.
    syms: &'s SymbolTable,
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

impl<'s> PredEval<'s> {
    /// Resolves `q`'s predicates against `syms`, probing the value
    /// index — the runs of `tiers`, then the delta `valix` — for the
    /// document pre-filter. `Ok(None)` when the query has no
    /// predicates.
    pub fn build(
        q: &TwigQuery,
        tiers: &[SegTier],
        valix: &Valix,
        syms: &'s SymbolTable,
    ) -> Result<Option<PredEval<'s>>> {
        if q.preds().is_empty() {
            return Ok(None);
        }
        let tree = q.tree();
        let items = q
            .preds()
            .iter()
            .map(|p| (tree.postorder(p.node), p.clone()))
            .collect();
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
            syms,
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
    /// numerator and denominator of the estimated selectivity `/explain`
    /// prints.
    pub fn estimate(&self) -> Option<(usize, DocId)> {
        self.allowed.as_ref().map(|s| (s.len(), self.covered))
    }

    /// This evaluator renumbered for a branch arrangement:
    /// `base_of[arr_post - 1]` maps arrangement postorders back to base
    /// ones (see `crate::arrange::Arrangement`).
    pub fn remap(&self, base_of: &[PostNum]) -> PredEval<'s> {
        let mut arr = PredEval {
            probe: ProbeStats::default(),
            ..self.clone()
        };
        for (post, _) in &mut arr.items {
            *post = base_of
                .iter()
                .position(|b| b == post)
                .map(|i| (i + 1) as PostNum)
                .expect("arrangement permutes every base node");
        }
        arr
    }

    /// Positionally verifies a refined embedding: every predicate node's
    /// image must have a leaf child whose label is accepted.
    ///
    /// `emb[q - 1]` is the image (original document postorder) of query
    /// node `q`; `data` must have been loaded with leaf data. Extended
    /// documents are walked through their dummy leaves: `dummy → value
    /// node → parent element`, with `lps[dummy - 1]` naming the value
    /// and `orig_map` translating the element back to original
    /// numbering.
    pub(crate) fn matches(&self, data: &DocData, emb: &[PostNum]) -> bool {
        self.items.iter().all(|(qpost, p)| {
            // A symbol past the table (a hostile record's) satisfies nothing.
            let accepts = |sym| self.syms.get(sym).is_some_and(|name| p.accepts(name));
            let img = emb[(*qpost - 1) as usize];
            match &data.orig_map {
                None => data.leaves.iter().any(|&(sym, pos)| {
                    pos >= 1
                        && data
                            .nps
                            .get(pos as usize - 1)
                            .is_some_and(|&parent| parent == img)
                        && accepts(sym)
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
                            .is_some_and(|&s| accepts(s))
                }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Indexes one leaf occurrence, as an insert does.
    fn add(vx: &mut Valix, tag: Sym, value: &str, doc: DocId, post: PostNum) {
        let trees = Arc::clone(&vx.trees);
        let mut trees = trees.write().unwrap();
        vx.add_value(&mut trees, tag, value, doc, post);
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
        let mut vx = Valix::create();
        let tag = Sym(3);
        let values = [
            "0", "-0", "1", "2.5", "9.99", "10", "10.0", "11", "-3", "1e2", "cheap", "inf",
        ];
        for (i, v) in values.iter().enumerate() {
            add(&mut vx, tag, v, i as DocId, 1);
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
        let mut vx = Valix::create();
        let tag = Sym(5);
        let values = ["x7", "x70", "x8", "ax7", "", "x", "10"];
        for (i, v) in values.iter().enumerate() {
            add(&mut vx, tag, v, i as DocId, 1);
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

    /// Verification checks a leaf's label against the predicate itself.
    /// Over a table of tricky numerics, strings and shared prefixes, for
    /// every operator, it must accept exactly the symbols of the set an
    /// evaluator once built up front by scanning the whole table — in
    /// the regular view and through an extended view's dummy leaf — and
    /// a symbol past the table, which no such set held, matches nothing.
    #[test]
    fn verification_accepts_exactly_the_scanned_symbol_set() {
        let mut syms = SymbolTable::new();
        for name in [
            "77", "77.0", "7.7e1", "+77", " 77", "77 ", "-0", "0", "0.0", "NaN", "inf", "-inf",
            "76.99", "78", "7", "770", "x7", "x70", "x", "ax7", "", "price",
        ] {
            syms.intern(name);
        }
        // A regular view (leaf 1 under the root 2) and an extended one
        // (dummy 1 under value node 2 under element 3, which is original
        // node 2), each holding one leaf labelled `sym`.
        let regular = |sym| DocData {
            nps: vec![2],
            lps: vec![Sym(0)],
            leaves: vec![(sym, 1)],
            orig_map: None,
            n_orig: 2,
        };
        let extended = |sym| DocData {
            nps: vec![2, 3],
            lps: vec![sym, Sym(0)],
            leaves: vec![(Sym(0), 1)],
            orig_map: Some(vec![0, 1, 2]),
            n_orig: 2,
        };
        let ops = [
            PredOp::Eq,
            PredOp::Ne,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
            PredOp::StartsWith,
        ];
        let values = [
            PredValue::Num(77.0),
            PredValue::Num(0.0),
            PredValue::Num(-0.0),
            PredValue::Num(f64::INFINITY),
            PredValue::Str("77".into()),
            PredValue::Str("x7".into()),
            PredValue::Str("".into()),
        ];
        for op in ops {
            for value in &values {
                let p = pred(op, value.clone());
                let scanned: HashSet<Sym> = syms
                    .iter()
                    .filter(|(_, name)| p.accepts(name))
                    .map(|(s, _)| s)
                    .collect();
                let eval = PredEval {
                    items: vec![(1, p.clone())],
                    syms: &syms,
                    allowed: None,
                    covered: 0,
                    probe: ProbeStats::default(),
                };
                for (sym, name) in syms.iter() {
                    let want = scanned.contains(&sym);
                    assert_eq!(eval.matches(&regular(sym), &[2]), want, "{p:?} on {name:?}");
                    assert_eq!(
                        eval.matches(&extended(sym), &[2]),
                        want,
                        "{p:?} on {name:?}"
                    );
                    // The label is checked only where the parent is the
                    // image.
                    assert!(!eval.matches(&regular(sym), &[1]), "{p:?} on {name:?}");
                }
                let past = Sym(syms.len() as u32);
                assert!(!eval.matches(&regular(past), &[2]), "{p:?} past the table");
                assert!(!eval.matches(&extended(past), &[2]), "{p:?} past the table");
            }
        }
    }

    #[test]
    fn probe_is_tag_scoped() {
        let mut vx = Valix::create();
        add(&mut vx, Sym(1), "5", 0, 1);
        add(&mut vx, Sym(2), "5", 1, 1);
        vx.delta_docs = 2;
        let p = pred(PredOp::Eq, PredValue::Num(5.0));
        let mut stats = ProbeStats::default();
        let got = vx.probe_docs(&[], Sym(1), &p, &mut stats).unwrap().unwrap();
        assert_eq!(got, HashSet::from([0]));
    }

    #[test]
    fn verify_counts_what_the_inserts_counted() {
        let mut vx = Valix::create();
        add(&mut vx, Sym(1), "42", 0, 2);
        add(&mut vx, Sym(1), "hello", 0, 4);
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
        let mut vx = Valix::create();
        add(&mut vx, Sym(1), "1", 5, 1);
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
        let mut vx = Valix::create();
        vx.delta_base = 100;
        // Equal keys across documents, and within one in arena order
        // (the later leaf first): each key's postings are filed in
        // (doc, post) order, the run's.
        for i in 0..3000u32 {
            add(&mut vx, Sym(1), &format!("{}", i % 7), 100 + i, 3);
            add(&mut vx, Sym(1), &format!("{}", i % 7), 100 + i, 1);
            add(&mut vx, Sym(2), "word", 100 + i, 5);
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
            let from_delta: Vec<(Vec<u8>, DocId, PostNum)> = vx.trees.read().unwrap()
                [section as usize]
                .iter()
                .flat_map(|(k, postings)| postings.iter().map(|&(d, p)| (k.clone(), d, p)))
                .collect();
            let mut from_run = Vec::new();
            run.scan(
                section,
                Bound::Unbounded,
                Bound::Unbounded,
                |k, doc, post| {
                    from_run.push((k.to_vec(), doc, post));
                    true
                },
            )
            .unwrap();
            assert_eq!(from_run, from_delta, "{section:?}");
        }
    }
}
