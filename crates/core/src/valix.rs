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
//! `(doc, leaf postorder)` postings.
//!
//! There is one value index: the tiers' *value runs*
//! (`prix_storage::ValueRunReader`, a sorted, packed file holding the
//! postings of exactly one tier's documents), written from the tier's
//! documents by the tier writer (`crate::segbuild::TierBuilder`), bulk
//! build and compaction alike. Tiers partition the document ids below
//! the delta, so the per-run answers are disjoint and their union is the
//! probe's ([`PredEval::build`]). The mutable delta keeps no postings: the
//! probe's coverage horizon is where the tiers end, every delta document
//! passes the pre-filter, and verification decides it like any other.
//!
//! Matching is **label-based**, mirroring the structural engines: a
//! childless element and a text node with the same label are
//! indistinguishable to Prüfer matching, so valix indexes the label of
//! *every* leaf under its parent's tag. The probe is a conservative
//! pre-filter (a superset of the satisfying documents); the
//! authoritative check is `PredEval::matches`, which verifies each
//! refined embedding positionally. Filtered results are therefore
//! exactly the post-filtered unfiltered results, with or without a
//! usable probe.

use std::ops::Bound;
use std::sync::Arc;

use prix_storage::{ValueRunReader, VxEntry, VxSection, VX_MAX_KEY_LEN};
use prix_xml::{DocId, PostNum, Sym, SymbolTable};

use crate::engine::SegTier;
use crate::index::{DocData, Result};
use crate::query::{PredOp, PredValue, TwigQuery, ValuePred};

/// String keys are truncated to this many value bytes. Truncation is
/// sound because equal prefixes collide *toward more postings* (the
/// probe stays a superset) and verification compares full strings.
pub const STR_KEY_CAP: usize = 256;

// A run stores these keys: its key bound is this one's.
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
pub(crate) fn str_key(tag: Sym, s: &str) -> Vec<u8> {
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

/// The run entries of one leaf occurrence (the tier writer sorts these
/// into the tier's value run).
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

/// How one predicate probes a value run: an opclass section, a key
/// range, and for `starts-with` the prefix every key in it must start
/// with.
struct KeyRange {
    section: VxSection,
    lo: Bound<Vec<u8>>,
    hi: Bound<Vec<u8>>,
    prefix: Option<Vec<u8>>,
}

impl KeyRange {
    /// The range of `pred` anchored at `tag`, or `None` when the
    /// operator has no index strategy (`!=`: nearly everything matches,
    /// a scan would cost more than it saves) and verification alone
    /// decides it.
    fn of(tag: Sym, pred: &ValuePred) -> Option<KeyRange> {
        let (section, lo, hi, prefix) = match (&pred.value, pred.op) {
            (PredValue::Num(_), PredOp::Ne | PredOp::StartsWith) => return None,
            (PredValue::Num(lit), op) => {
                let key = num_key(tag, *lit).to_vec();
                let (lo, hi) = match op {
                    PredOp::Lt | PredOp::Le => (num_key(tag, f64::NEG_INFINITY).to_vec(), key),
                    PredOp::Gt | PredOp::Ge => (key, num_key(tag, f64::INFINITY).to_vec()),
                    _ => (key.clone(), key),
                };
                let lo = match op {
                    PredOp::Gt => Bound::Excluded(lo),
                    _ => Bound::Included(lo),
                };
                let hi = match op {
                    PredOp::Lt => Bound::Excluded(hi),
                    _ => Bound::Included(hi),
                };
                (VxSection::Num, lo, hi, None)
            }
            (PredValue::Str(lit), PredOp::Eq) => {
                let key = str_key(tag, lit);
                (
                    VxSection::Str,
                    Bound::Included(key.clone()),
                    Bound::Included(key),
                    None,
                )
            }
            (PredValue::Str(lit), PredOp::StartsWith) => {
                // A prefix is a contiguous key range: scan from the
                // prefix key, stop at the first key that no longer starts
                // with it. The next tag's first possible key bounds the
                // range above, which is what lets a run that lacks the
                // tag skip the scan.
                let key = str_key(tag, lit);
                let hi = tag.0.checked_add(1).map_or(Bound::Unbounded, |t| {
                    Bound::Excluded(t.to_be_bytes().to_vec())
                });
                (VxSection::Str, Bound::Included(key.clone()), hi, Some(key))
            }
            (PredValue::Str(_), _) => return None,
        };
        Some(KeyRange {
            section,
            lo,
            hi,
            prefix,
        })
    }

    /// Appends the range's postings in `run` to `out`, in `(key, doc,
    /// post)` order.
    fn scan(&self, run: &ValueRunReader, out: &mut Vec<(DocId, PostNum)>) -> Result<()> {
        let lo = self.lo.as_ref().map(Vec::as_slice);
        let hi = self.hi.as_ref().map(Vec::as_slice);
        run.scan(self.section, lo, hi, |k, doc, post| {
            let kept = self.prefix.as_ref().is_none_or(|p| k.starts_with(p));
            if kept {
                out.push((doc, post));
            }
            kept
        })?;
        Ok(())
    }
}

/// The documents both ascending lists hold.
pub(crate) fn merge_join(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x == y {
            out.push(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out
}

/// The documents of `(doc, post)` postings sorted by document.
pub(crate) fn docs_of(postings: &[(DocId, PostNum)]) -> Vec<DocId> {
    let mut docs: Vec<DocId> = postings.iter().map(|&(d, _)| d).collect();
    docs.dedup();
    docs
}

/// What one probe found in one tier's value run: per predicate, its
/// `(doc, post)` postings sorted, or `None` for a predicate with no
/// index strategy.
struct TierPostings {
    /// The tier's first document id.
    base: DocId,
    preds: Vec<Option<Vec<(DocId, PostNum)>>>,
}

/// What [`PredEval::build`] probed, shared by the evaluator and its
/// [`PredEval::remap`]s.
struct Probed {
    /// Documents below the coverage horizon that can satisfy every
    /// probeable predicate, ascending; `None` when no predicate was
    /// probeable (`!=`-only).
    allowed: Option<Vec<DocId>>,
    tiers: Vec<TierPostings>,
}

/// A query's predicates resolved for execution: the predicates
/// themselves and the symbol table that names leaf labels (the
/// verification side) plus what one probe of the tiers' value runs found
/// (the pruning side): the document pre-filter, and each tier's postings
/// per predicate, which an anchored stream takes its candidates from.
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
    probed: Arc<Probed>,
    /// The coverage horizon: where the probed tiers end. Documents at or
    /// past it — the delta's — have no postings, so the pre-filter must
    /// admit them.
    covered: DocId,
    /// Probe counters, folded into the query stats by the runner.
    pub probe: ProbeStats,
}

impl<'s> PredEval<'s> {
    /// Resolves `q`'s predicates against `syms`, probing the value run
    /// of each of `tiers` once per probeable predicate: the postings,
    /// sorted, and the document pre-filter they imply, which admits
    /// every document past the last tier. `Ok(None)` when the query has
    /// no predicates.
    pub fn build(
        q: &TwigQuery,
        tiers: &[SegTier],
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
        let ranges: Vec<Option<KeyRange>> = q
            .preds()
            .iter()
            .map(|p| KeyRange::of(tree.label(p.node), p))
            .collect();
        let mut probe = ProbeStats {
            probes: ranges.iter().flatten().count() as u64,
            postings: 0,
        };
        let mut allowed = (probe.probes > 0).then(Vec::new);
        let mut probed = Vec::with_capacity(tiers.len());
        for tier in tiers {
            let mut docs: Option<Vec<DocId>> = None;
            let mut preds = Vec::with_capacity(ranges.len());
            for range in &ranges {
                let Some(range) = range else {
                    preds.push(None);
                    continue;
                };
                let mut list = Vec::new();
                range.scan(&tier.vx, &mut list)?;
                probe.postings += list.len() as u64;
                list.sort_unstable();
                let held = docs_of(&list);
                docs = Some(match docs {
                    None => held,
                    Some(d) => merge_join(&d, &held),
                });
                preds.push(Some(list));
            }
            if let (Some(all), Some(docs)) = (&mut allowed, docs) {
                all.extend(docs);
            }
            probed.push(TierPostings {
                base: tier.doc_base,
                preds,
            });
        }
        Ok(Some(PredEval {
            items,
            syms,
            probed: Arc::new(Probed {
                allowed,
                tiers: probed,
            }),
            covered: tiers.last().map_or(0, |t| t.doc_base + t.n_docs),
            probe,
        }))
    }

    /// Whether the document pre-filter admits `doc`. Conservative:
    /// `true` whenever the probe cannot rule the document out.
    pub fn allows(&self, doc: DocId) -> bool {
        match &self.probed.allowed {
            None => true,
            Some(docs) => doc >= self.covered || docs.binary_search(&doc).is_ok(),
        }
    }

    /// `(probed docs, coverage horizon)` when a usable probe ran — the
    /// numerator and denominator of the estimated selectivity `/explain`
    /// prints.
    pub fn estimate(&self) -> Option<(usize, DocId)> {
        self.probed
            .allowed
            .as_ref()
            .map(|docs| (docs.len(), self.covered))
    }

    /// The first predicate of the node at postorder `post` (of the
    /// query this evaluator is numbered for) whose postings the probe
    /// holds for the tier whose first document is `base`.
    pub(crate) fn probed_at(&self, base: DocId, post: PostNum) -> Option<usize> {
        (0..self.items.len()).find(|&k| self.items[k].0 == post && self.postings(base, k).is_some())
    }

    /// Predicate `k`.
    pub(crate) fn pred(&self, k: usize) -> &ValuePred {
        &self.items[k].1
    }

    /// Predicate `k`'s postings in the value run of the tier whose first
    /// document is `base`, sorted by `(doc, post)`: `None` when the
    /// predicate has no index strategy or the probe did not cover the
    /// tier.
    pub(crate) fn postings(&self, base: DocId, k: usize) -> Option<&[(DocId, PostNum)]> {
        let tier = self.probed.tiers.iter().find(|t| t.base == base)?;
        tier.preds.get(k)?.as_deref()
    }

    /// This evaluator renumbered for a branch arrangement:
    /// `base_of[arr_post - 1]` maps arrangement postorders back to base
    /// ones (see `crate::arrange::Arrangement`). The probe's findings are
    /// shared, not copied.
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
    use std::collections::HashSet;

    use prix_storage::{IoStats, MemSegEnv, SegmentEnv, ValueRunBuilder};

    use super::*;

    /// The value run of `leaves`, `(tag, value, doc)` each, every leaf
    /// at postorder 1: their run entries sorted, as a tier writer sorts
    /// them, and written to a [`MemSegEnv`].
    fn run_of(leaves: &[(Sym, &str, DocId)]) -> ValueRunReader {
        let env = MemSegEnv::new();
        let mut entries: Vec<VxEntry> = leaves
            .iter()
            .flat_map(|&(tag, value, doc)| run_entries(tag, value, doc, 1))
            .collect();
        entries.sort();
        let n_docs = leaves.iter().map(|&(_, _, doc)| doc + 1).max().unwrap_or(0);
        let mut b = ValueRunBuilder::new(env.create(".vx.seg").unwrap(), 0, n_docs);
        for e in &entries {
            b.push(e.section, &e.key, e.doc, e.post).unwrap();
        }
        b.finish().unwrap();
        ValueRunReader::open(env.open(".vx.seg").unwrap(), Arc::new(IoStats::new())).unwrap()
    }

    /// The documents `pred` anchored at `tag` probes in `run`.
    fn probe(run: &ValueRunReader, tag: Sym, pred: &ValuePred) -> Option<HashSet<DocId>> {
        let mut list = Vec::new();
        KeyRange::of(tag, pred)?.scan(run, &mut list).unwrap();
        Some(list.into_iter().map(|(doc, _)| doc).collect())
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
        let tag = Sym(3);
        let values = [
            "0", "-0", "1", "2.5", "9.99", "10", "10.0", "11", "-3", "1e2", "cheap", "inf",
        ];
        let leaves: Vec<_> = (0..).zip(values).map(|(i, v)| (tag, v, i)).collect();
        let run = run_of(&leaves);
        for op in [PredOp::Eq, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge] {
            for lit in [0.0, 2.5, 10.0, -1.0] {
                let p = pred(op, PredValue::Num(lit));
                let got = probe(&run, tag, &p).unwrap();
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
        assert!(probe(&run, tag, &pred(PredOp::Ne, PredValue::Num(1.0))).is_none());
    }

    #[test]
    fn probe_agrees_with_accepts_on_strings() {
        let tag = Sym(5);
        let values = ["x7", "x70", "x8", "ax7", "", "x", "10"];
        let leaves: Vec<_> = (0..).zip(values).map(|(i, v)| (tag, v, i)).collect();
        let run = run_of(&leaves);
        for p in [
            pred(PredOp::Eq, PredValue::Str("x7".into())),
            pred(PredOp::Eq, PredValue::Str("10".into())),
            pred(PredOp::StartsWith, PredValue::Str("x7".into())),
            pred(PredOp::StartsWith, PredValue::Str("x".into())),
            pred(PredOp::StartsWith, PredValue::Str("".into())),
        ] {
            let got = probe(&run, tag, &p).unwrap();
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
                    probed: Arc::new(Probed {
                        allowed: None,
                        tiers: Vec::new(),
                    }),
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
        let run = run_of(&[(Sym(1), "5", 0), (Sym(2), "5", 1)]);
        let p = pred(PredOp::Eq, PredValue::Num(5.0));
        assert_eq!(probe(&run, Sym(1), &p), Some(HashSet::from([0])));
    }
}
