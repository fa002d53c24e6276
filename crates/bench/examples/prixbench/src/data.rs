//! Inputs: the `mixed` collection, the ingestable `feed` documents, the
//! query pool and its expected answers. Everything is a pure function
//! of the seed.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use prix_core::{naive, parse_xpath, prix_embedding_exact, TwigQuery};
use prix_datagen::{values, Dataset, SplitMix64};
use prix_xml::{write_document, Collection, DocId, NodeKind, PostNum, Sym, XmlTree};

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `quick`
/// is the self-test's.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `prix_datagen` scale of each of DBLP, SWISSPROT, TREEBANK, shop.
    pub datagen: f64,
    /// Haystack documents carrying the rare-ancestor twigs.
    pub hay_docs: usize,
    /// Feed documents ingested after the bulk build. Each batch of them
    /// is one durable commit, and a commit costs tens of milliseconds of
    /// fsync in the sandbox, so the tail is a few hundred documents, not
    /// a tenth of the corpus.
    pub tail_docs: usize,
    /// Distinct queries in the pool.
    pub qpool: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        datagen: 0.25,
        hay_docs: 200,
        tail_docs: 512,
        qpool: 512,
    };
    pub const QUICK: Scale = Scale {
        datagen: 0.04,
        hay_docs: 80,
        tail_docs: 128,
        qpool: 128,
    };
}

/// Distinct rare ancestors planted in the haystack documents.
const NEEDLES: usize = 4;
/// One haystack document in this many carries a needle.
const NEEDLE_EVERY: usize = 10;

/// Values per `feed` field. A fresh trie child takes half of its
/// parent's remaining label scope (§5.2.1 dynamic labeling), so a node
/// can only ever grow a few dozen distinct children. Four fields of
/// eight values keep every node of the mutable delta's trie far inside
/// that budget however many feed documents arrive, while still giving
/// 4096 distinct documents.
pub const FEED_VALUES: usize = 8;
const FEED_FIELDS: [(&str, &str); 4] = [("src", "s"), ("kind", "k"), ("lvl", "l"), ("zone", "z")];

/// The documents of one run.
pub struct Corpus {
    /// The bulk-built part: DBLP + SWISSPROT + TREEBANK + shop + hay
    /// records, shuffled into one heterogeneous collection.
    pub bulk: Vec<String>,
    /// The feed documents ingested after the bulk build.
    pub tail: Vec<FeedDoc>,
    /// FNV-1a over every document, for the determinism check.
    pub hash: u64,
}

impl Corpus {
    pub fn xml_bytes(&self) -> u64 {
        let bulk: usize = self.bulk.iter().map(|d| d.len()).sum();
        let tail: usize = self.tail.iter().map(|d| d.xml.len()).sum();
        (bulk + tail) as u64
    }
}

/// One ingestable event record and the `(src, kind)` class it counts
/// towards.
#[derive(Debug, Clone)]
pub struct FeedDoc {
    pub xml: String,
    pub class: usize,
}

/// Number of `(src, kind)` classes the durability check partitions the
/// feed documents into.
pub const FEED_CLASSES: usize = FEED_VALUES * FEED_VALUES;

pub fn feed_doc(rng: &mut SplitMix64) -> FeedDoc {
    let mut xml = String::from("<ev>");
    let mut picks = [0usize; 4];
    for (pick, (tag, prefix)) in picks.iter_mut().zip(FEED_FIELDS) {
        *pick = rng.below(FEED_VALUES as u64) as usize;
        xml.push_str(&format!("<{tag}>{prefix}{pick}</{tag}>"));
    }
    xml.push_str("</ev>");
    FeedDoc {
        xml,
        class: picks[0] * FEED_VALUES + picks[1],
    }
}

/// The query that counts the feed documents of one `(src, kind)` class.
pub fn feed_class_query(class: usize) -> String {
    format!(
        r#"//ev[./src="s{}"][./kind="k{}"]"#,
        class / FEED_VALUES,
        class % FEED_VALUES
    )
}

pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn hay_doc(i: usize, rng: &mut SplitMix64) -> String {
    let mut xml = String::from("<root>");
    if i % NEEDLE_EVERY == 0 {
        let k = (i / NEEDLE_EVERY) % NEEDLES;
        xml.push_str(&format!("<needle{k}><hay>v</hay><hay>v</hay></needle{k}>"));
    }
    // Each hay sits in a randomly chosen wrapper so documents do not
    // collapse onto shared trie paths (see benches/engine_routing.rs).
    for _ in 0..24 {
        let w = rng.below(29);
        xml.push_str(&format!("<w{w}><hay>v</hay></w{w}>"));
    }
    xml.push_str("</root>");
    xml
}

pub fn generate(seed: u64, scale: &Scale) -> Corpus {
    let mut bulk: Vec<String> = Vec::new();
    let mut emit = |c: Collection| {
        bulk.extend(c.iter().map(|(_, t)| write_document(t, c.symbols())));
    };
    for ds in Dataset::all() {
        emit(prix_datagen::generate(ds, scale.datagen, seed));
    }
    emit(values::generate(&values::ShopConfig::scaled(
        scale.datagen,
        seed,
    )));
    let mut rng = SplitMix64::new(seed ^ 0x9B1C_BE4C);
    bulk.extend((0..scale.hay_docs).map(|i| hay_doc(i, &mut rng)));
    // Fisher–Yates: one server hosts one heterogeneous database.
    for i in (1..bulk.len()).rev() {
        bulk.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let tail: Vec<FeedDoc> = (0..scale.tail_docs).map(|_| feed_doc(&mut rng)).collect();
    let mut hash = FNV_SEED;
    for d in bulk.iter().chain(tail.iter().map(|d| &d.xml)) {
        hash = fnv1a(hash, d.as_bytes());
    }
    Corpus { bulk, tail, hash }
}

/// Query classes: which index structure or engine a query leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Value-free path (RPIndex).
    Path,
    /// Value-free branching twig.
    Twig,
    /// `text()=` / `[./a="v"]` equality (EPIndex).
    Value,
    /// Range / prefix predicates (value index).
    Pred,
    /// `//`-heavy TREEBANK shapes.
    Deep,
    /// Rare-ancestor twigs the planner may route to TwigStackXB.
    Rare,
    /// Thousands of matches, with and without a limit.
    Wide,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Path,
        Class::Twig,
        Class::Value,
        Class::Pred,
        Class::Deep,
        Class::Rare,
        Class::Wide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Path => "path",
            Class::Twig => "twig",
            Class::Value => "value",
            Class::Pred => "pred",
            Class::Deep => "deep",
            Class::Rare => "rare",
            Class::Wide => "wide",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// A sampled value-free query with at least this many matches is left
/// out: [`WIDE`] covers that regime with the same queries on every seed.
const WIDE_MIN: u64 = 500;
/// The `wide` class: thousands of matches each, run with and without a
/// limit.
const WIDE: [&str; 4] = [
    "//inproceedings/title",
    "//item/price",
    "//item/tag",
    "//Entry/Features/from",
];
/// `deep` shapes beside the paper's Q7-Q9: a child step under a
/// descendant step over the recursive TREEBANK trees. (`//NP//NP/..`
/// and the like walk every NP under every NP: seconds, not
/// milliseconds.)
const DEEP: [&str; 3] = ["//S//NP/DT", "//VP//NP/NN", "//S//PP/IN"];
/// The limit of the limited variant of each wide query.
pub const WIDE_LIMIT: usize = 100;

/// One query of the pool.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub xpath: String,
    pub class: Class,
    /// `ExecOpts::limit` for library calls; `limit=` on the wire.
    pub limit: Option<usize>,
    /// All matches in the bulk collection, by the naive oracle.
    pub total: u64,
}

impl QuerySpec {
    /// The count a correct answer reports under `limit` (`None` = the
    /// query's own).
    pub fn expected(&self, limit: Option<usize>) -> u64 {
        limit.map_or(self.total, |l| self.total.min(l as u64))
    }
}

/// The parsed bulk collection plus a label → documents index, so the
/// naive matcher only visits documents that contain the query's rarest
/// label (a document without it cannot match).
pub struct Oracle {
    pub coll: Collection,
    label_docs: HashMap<Sym, Vec<DocId>>,
}

impl Oracle {
    pub fn build(bulk: &[String]) -> Result<Oracle, String> {
        let mut coll = Collection::new();
        for d in bulk {
            coll.add_xml(d).map_err(|e| format!("oracle parse: {e}"))?;
        }
        let mut label_docs: HashMap<Sym, Vec<DocId>> = HashMap::new();
        for (id, tree) in coll.iter() {
            let labels: BTreeSet<Sym> = tree.nodes().map(|n| tree.label(n)).collect();
            for l in labels {
                label_docs.entry(l).or_default().push(id);
            }
        }
        Ok(Oracle { coll, label_docs })
    }

    pub fn parse(&mut self, xpath: &str) -> Result<TwigQuery, String> {
        parse_xpath(xpath, self.coll.symbols_mut()).map_err(|e| format!("{xpath}: {e}"))
    }

    /// The documents holding the query's rarest label: the only ones
    /// that can match.
    pub fn candidates(&self, q: &TwigQuery) -> &[DocId] {
        let qt = q.tree();
        qt.nodes()
            .map(|n| {
                self.label_docs
                    .get(&qt.label(n))
                    .map_or(&[][..], |v| &v[..])
            })
            .min_by_key(|docs| docs.len())
            .unwrap_or(&[])
    }

    /// Number of ordered embeddings of `q` in the collection that also
    /// satisfy its value predicates.
    pub fn count(&self, q: &TwigQuery) -> u64 {
        let syms = self.coll.symbols();
        self.candidates(q)
            .iter()
            .map(|&id| {
                let tree = self.coll.doc(id);
                naive::naive_ordered(tree, q)
                    .iter()
                    .filter(|emb| preds_hold(tree, syms, q, emb))
                    .count() as u64
            })
            .sum()
    }
}

/// A predicate holds iff the image of its node has a leaf child whose
/// label text the predicate accepts (`ValuePred::accepts` is the single
/// definition of predicate truth).
fn preds_hold(
    tree: &XmlTree,
    syms: &prix_xml::SymbolTable,
    q: &TwigQuery,
    emb: &[PostNum],
) -> bool {
    q.preds().iter().all(|p| {
        let img = tree.node_at(emb[(q.tree().postorder(p.node) - 1) as usize]);
        tree.children(img)
            .iter()
            .any(|&c| tree.is_leaf(c) && p.accepts(syms.name(tree.label(c))))
    })
}

/// `(tag, text)` of each child of `node` that is an element holding
/// exactly one text leaf, in document order.
fn fields(tree: &XmlTree, syms: &prix_xml::SymbolTable, node: u32) -> Vec<(String, String)> {
    tree.children(node)
        .iter()
        .filter_map(|&c| match tree.children(c) {
            [t] if tree.kind(*t) == NodeKind::Text => Some((
                syms.name(tree.label(c)).to_string(),
                syms.name(tree.label(*t)).to_string(),
            )),
            _ => None,
        })
        .collect()
}

/// Query literals are double-quoted and the grammar has no escape.
fn quotable(s: &str) -> bool {
    !s.is_empty() && !s.contains('"')
}

/// Candidate queries of each class, drawn from the documents themselves.
struct Sampler<'a> {
    oracle: &'a Oracle,
    rng: SplitMix64,
    /// Document ids by root tag.
    by_root: BTreeMap<String, Vec<DocId>>,
}

impl<'a> Sampler<'a> {
    fn doc_of(&mut self, roots: &[&str]) -> Option<DocId> {
        let root = *self.rng.pick(roots);
        let ids = self.by_root.get(root)?;
        Some(*self.rng.pick(ids))
    }

    /// The label's text, borrowed from the oracle rather than from
    /// `self` so the sampler's RNG stays usable while it is held.
    fn name(&self, s: Sym) -> &'a str {
        self.oracle.coll.symbols().name(s)
    }

    /// Equality shapes. `template` cycles, so every seed's pool holds
    /// the three shapes (whose costs differ) in the same proportions.
    fn value(&mut self, template: usize) -> Option<String> {
        let oracle = self.oracle;
        let syms = oracle.coll.symbols();
        match template % 3 {
            0 => {
                let id = self.doc_of(&["inproceedings", "article", "book"])?;
                let tree = oracle.coll.doc(id);
                let f = fields(tree, syms, tree.root());
                let (_, author) = f.iter().find(|(t, _)| t == "author")?;
                let (_, year) = f.iter().find(|(t, _)| t == "year")?;
                let root = self.name(tree.label(tree.root()));
                (quotable(author) && quotable(year))
                    .then(|| format!(r#"//{root}[./author="{author}"][./year="{year}"]"#))
            }
            1 => {
                let id = self.doc_of(&["inproceedings", "article", "www", "book"])?;
                let tree = oracle.coll.doc(id);
                let f = fields(tree, syms, tree.root());
                let (_, title) = f.iter().find(|(t, _)| t == "title")?;
                quotable(title).then(|| format!(r#"//title[text()="{title}"]"#))
            }
            _ => {
                let id = self.doc_of(&["Entry"])?;
                let tree = oracle.coll.doc(id);
                let f = fields(tree, syms, tree.root());
                let tag = *self.rng.pick(&["Keyword", "Org", "AC"]);
                let (_, v) = f.iter().find(|(t, _)| t == tag)?;
                quotable(v).then(|| format!(r#"//Entry[./{tag}="{v}"]"#))
            }
        }
    }

    fn pred(&mut self, template: usize) -> Option<String> {
        let oracle = self.oracle;
        let syms = oracle.coll.symbols();
        let id = self.doc_of(&["item"])?;
        let tree = oracle.coll.doc(id);
        let f = fields(tree, syms, tree.root());
        let get = |tag: &str| f.iter().find(|(t, _)| t == tag).map(|(_, v)| v.clone());
        Some(match template % 4 {
            0 => format!("//item[price < {}]", 10 + self.rng.below(60)),
            1 => format!("//item[quantity >= {}]", 470 + self.rng.below(40)),
            2 => {
                let sku = get("id")?;
                // `SKU-K7537` → prefix `SKU-K75`: about 1 % of a letter.
                let prefix = sku.get(..7)?;
                format!(r#"//item[starts-with(./id, "{prefix}")]"#)
            }
            _ => {
                let cat = get("category")?;
                if !quotable(&cat) {
                    return None;
                }
                format!(
                    r#"//item[price < {}][category = "{cat}"]"#,
                    20 + self.rng.below(200)
                )
            }
        })
    }

    /// Value-free shapes read off a sampled element: a chain of
    /// ancestors (`path`) or an element with two or three of its child
    /// tags in document order (`twig`).
    fn structural(&mut self, branching: bool) -> Option<String> {
        let oracle = self.oracle;
        let id = self.doc_of(&[
            "inproceedings",
            "article",
            "www",
            "book",
            "Entry",
            "item",
            "order",
        ])?;
        let tree = oracle.coll.doc(id);
        let elements: Vec<u32> = tree
            .nodes()
            .filter(|&n| tree.kind(n) == NodeKind::Element)
            .collect();
        let node = *self.rng.pick(&elements);
        if branching {
            let mut kids: Vec<&str> = Vec::new();
            for &c in tree.children(node) {
                let tag = self.name(tree.label(c));
                if tree.kind(c) == NodeKind::Element && !kids.contains(&tag) {
                    kids.push(tag);
                }
            }
            if kids.len() < 2 {
                return None;
            }
            // Keep document order: ordered twig matching needs it.
            let mut pick: Vec<usize> = (0..kids.len()).collect();
            while pick.len() > 2 + self.rng.below(2) as usize {
                pick.remove(self.rng.below(pick.len() as u64) as usize);
            }
            let (last, preds) = pick.split_last()?;
            let mut q = format!("//{}", self.name(tree.label(node)));
            for &p in preds {
                q.push_str(&format!("[./{}]", kids[p]));
            }
            q.push_str(&format!("/{}", kids[*last]));
            Some(q)
        } else {
            let mut chain = vec![self.name(tree.label(node))];
            let mut cur = node;
            while chain.len() < 2 + self.rng.below(2) as usize {
                cur = tree.parent(cur)?;
                chain.push(self.name(tree.label(cur)));
            }
            chain.reverse();
            Some(format!("//{}", chain.join("/")))
        }
    }
}

/// The costliest `value` shape, `//Entry/Ref[./Author=a][./Author=b]`
/// (0.3 to 20 ms with how common the two authors are), over the ordered
/// pairs of the collection's most common authors. The generator draws
/// authors from one skewed list, so these are nearly the same queries on
/// every seed; drawn from sampled documents they were a sixth of the
/// pool, 45 % of a pass's time and the whole of its 95th percentile,
/// which then moved by a quarter with the draw.
fn author_pairs(oracle: &Oracle, pairs: usize) -> Vec<String> {
    let syms = oracle.coll.symbols();
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, tree) in oracle.coll.iter() {
        for n in tree.nodes() {
            if let ("Author", [t]) = (syms.name(tree.label(n)), tree.children(n)) {
                *uses.entry(syms.name(tree.label(*t))).or_default() += 1;
            }
        }
    }
    let mut authors: Vec<(&str, usize)> = uses.into_iter().filter(|(a, _)| quotable(a)).collect();
    // Most common first; the map's name order breaks ties.
    authors.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut out = Vec::with_capacity(pairs);
    // By rank sum, so the pairs of the commonest authors come first.
    for sum in 1..2 * authors.len() {
        for i in 0..authors.len().min(sum + 1) {
            let j = sum - i;
            if i != j && j < authors.len() && out.len() < pairs {
                out.push(format!(
                    r#"//Entry/Ref[./Author="{}"][./Author="{}"]"#,
                    authors[i].0, authors[j].0
                ));
            }
        }
    }
    out
}

/// Builds the pool. The costly classes — `deep`, `rare`, `wide`, 5 to
/// 20 ms a query against ~0.5 ms for the rest — are the same few
/// queries on every seed, so that what a pass costs does not hinge on
/// which of them a seed happened to draw; with them go the paper's own
/// Q1-Q9 and QP1-QP8, whose planted answers check the oracle. The
/// selective classes are sampled from the seed's documents, each up to
/// a quota; value-free shapes are limited by the tag vocabulary, and
/// `value` absorbs their shortfall. Queries PRIX answers with fewer
/// embeddings than the oracle (`//` at a branch, Q6) are left out.
pub fn qpool(oracle: &mut Oracle, seed: u64, scale: &Scale) -> Result<Vec<QuerySpec>, String> {
    let mut candidates: Vec<(Class, String, Option<usize>)> = Vec::new();
    for q in prix_datagen::paper_queries() {
        let class = match (q.dataset, q.has_values) {
            (Dataset::Treebank, _) => Class::Deep,
            (_, true) => Class::Value,
            (_, false) => Class::Twig,
        };
        candidates.push((class, q.xpath.to_string(), None));
    }
    for q in prix_datagen::predicate_queries() {
        candidates.push((Class::Pred, q.xpath.to_string(), None));
    }
    for xpath in DEEP {
        candidates.push((Class::Deep, xpath.to_string(), None));
    }
    for k in 0..NEEDLES {
        candidates.push((Class::Rare, format!("//needle{k}//hay"), None));
    }
    for xpath in WIDE {
        for limit in [None, Some(WIDE_LIMIT)] {
            candidates.push((Class::Wide, xpath.to_string(), limit));
        }
    }
    for xpath in author_pairs(oracle, scale.qpool / 8) {
        // The paper's Q5 is such a pair already.
        if candidates.iter().all(|c| c.1 != xpath) {
            candidates.push((Class::Value, xpath, None));
        }
    }
    let fixed = candidates.len();

    let mut by_root: BTreeMap<String, Vec<DocId>> = BTreeMap::new();
    for (id, tree) in oracle.coll.iter() {
        let root = oracle.coll.symbols().name(tree.label(tree.root()));
        by_root.entry(root.to_string()).or_default().push(id);
    }
    let n = scale.qpool;
    let quotas = [
        (Class::Path, n / 8),
        (Class::Twig, n / 8),
        (Class::Pred, n / 4),
        (Class::Value, n),
    ];
    let mut seen: BTreeSet<String> = candidates.iter().map(|c| c.1.clone()).collect();
    {
        let mut s = Sampler {
            oracle: &*oracle,
            rng: SplitMix64::new(seed ^ 0x51_00B5),
            by_root,
        };
        for (class, quota) in quotas {
            let before = candidates.len();
            for _ in 0..quota * 40 {
                let found = candidates.len() - before;
                if found >= quota {
                    break;
                }
                let q = match class {
                    Class::Path => s.structural(false),
                    Class::Twig => s.structural(true),
                    Class::Pred => s.pred(found),
                    _ => s.value(found),
                };
                if let Some(q) = q {
                    if seen.insert(q.clone()) {
                        candidates.push((class, q, None));
                    }
                }
            }
        }
    }

    let mut pool: Vec<QuerySpec> = Vec::new();
    for (i, (class, xpath, limit)) in candidates.into_iter().enumerate() {
        let q = oracle.parse(&xpath)?;
        if !prix_embedding_exact(&q) {
            continue;
        }
        let total = oracle.count(&q);
        let sampled_wide = i >= fixed && total >= WIDE_MIN && q.preds().is_empty();
        if sampled_wide && matches!(class, Class::Path | Class::Twig) {
            continue;
        }
        pool.push(QuerySpec {
            xpath,
            class,
            limit,
            total,
        });
    }
    // `value` was over-sampled; trim it back to the pool's size.
    let excess = pool.len().saturating_sub(n);
    let mut dropped = 0;
    let mut at = 0;
    pool.retain(|q| {
        at += 1;
        let drop = at > fixed && q.class == Class::Value && dropped < excess;
        dropped += usize::from(drop);
        !drop
    });
    for class in Class::ALL {
        if !pool.iter().any(|q| q.class == class) {
            return Err(format!("query pool has no `{}` query", class.name()));
        }
    }
    Ok(pool)
}

/// FNV-1a over the pool, for the determinism check.
pub fn qpool_hash(pool: &[QuerySpec]) -> u64 {
    pool.iter().fold(FNV_SEED, |h, q| {
        let h = fnv1a(h, q.xpath.as_bytes());
        fnv1a(h, &q.total.to_le_bytes())
    })
}
