//! Benchmark harness reproducing the PRIX paper's evaluation (§6).
//!
//! [`Workbench::setup`] builds, for one dataset, everything §6.1
//! describes: the PRIX engine (RPIndex + EPIndex), the ViST index, and
//! the TwigStack substrate (streams + XB-trees). PRIX is bulk-built the
//! way the server ships it, into one segment tier read in 4 KiB blocks
//! (and an empty delta); ViST and TwigStack live in 8 KiB-page stores
//! behind 2000-page buffer pools. [`Workbench::run_query`] then executes
//! one XPath query on every engine from a cold cache and reports
//! wall-clock time, cold reads (the paper's "Disk IO" columns: blocks
//! for PRIX, pages for the others), and result counts.
//!
//! The `run_experiments` binary drives this to regenerate every table
//! and figure; see DESIGN.md §3 for the experiment index.

use std::sync::Arc;
use std::time::Instant;

use prix_core::{naive, EngineConfig, PrixEngine};
use prix_datagen::{generate, Dataset};
use prix_storage::{BufferPool, Pager};
use prix_twigstack::{Algorithm, Substrate, TwigJoin};
use prix_vist::VistIndex;
use prix_xml::{Collection, CollectionStats};

/// One engine's measurement for one query.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Reads from a cold cache (the "Disk IO" column): 8 KiB pages for
    /// ViST and TwigStack; for PRIX, segment blocks of 4 KiB plus the
    /// delta's pages, of which a fresh build has none.
    pub pages: u64,
    /// Twig matches reported (for ViST: *verified* matches; its native
    /// candidate count is in [`QueryRow::vist_candidates`]).
    pub matches: u64,
}

/// All engines' measurements for one query.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Query id ("Q1".."Q9" or ad hoc).
    pub id: String,
    /// XPath text.
    pub xpath: String,
    /// PRIX (the paper's system; index picked by the §5.6 optimizer).
    pub prix: Measurement,
    /// Which PRIX index answered ("RPIndex"/"EPIndex").
    pub prix_index: String,
    /// ViST (native subsequence matching).
    pub vist: Measurement,
    /// ViST native candidate documents (includes false alarms).
    pub vist_candidates: u64,
    /// ViST false alarms removed by verification.
    pub vist_false_alarms: u64,
    /// TwigStack (plain streams).
    pub twigstack: Measurement,
    /// TwigStackXB (XB-tree skipping).
    pub twigstackxb: Measurement,
    /// Ground truth from the naive oracle.
    pub expected: u64,
}

/// A fully built benchmark environment for one dataset.
pub struct Workbench {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// Scale factor used.
    pub scale: f64,
    /// The generated documents: the oracle's input and what ViST
    /// verifies against (the engine keeps only their symbols).
    collection: Collection,
    prix: PrixEngine,
    vist: VistIndex,
    vist_pool: Arc<BufferPool>,
    /// TwigStack's streams and XB-trees.
    ts: Substrate,
    ts_pool: Arc<BufferPool>,
}

impl Workbench {
    /// Generates the dataset and builds every engine.
    pub fn setup(dataset: Dataset, scale: f64, seed: u64) -> Self {
        let collection = generate(dataset, scale, seed);

        let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
        let vist = VistIndex::build(Arc::clone(&vist_pool), &collection)
            .expect("ViST build cannot fail on in-memory pager");

        let ts_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
        let ts = Substrate::build(Arc::clone(&ts_pool), &collection)
            .expect("TwigStack build cannot fail on in-memory pager");

        let prix = PrixEngine::build(collection.clone(), EngineConfig::default())
            .expect("PRIX build cannot fail in memory");

        Workbench {
            dataset,
            scale,
            collection,
            prix,
            vist,
            vist_pool,
            ts,
            ts_pool,
        }
    }

    /// Table 2 statistics of the generated collection.
    pub fn stats(&self) -> CollectionStats {
        self.collection.stats()
    }

    /// The PRIX engine (for direct experimentation).
    pub fn prix(&self) -> &PrixEngine {
        &self.prix
    }

    /// Runs `xpath` on all four engines from cold caches.
    pub fn run_query(&mut self, id: &str, xpath: &str) -> QueryRow {
        let view = self.prix.snapshot();
        let q = view
            .parse_query(xpath)
            .unwrap_or_else(|e| panic!("bad query {id}: {e}"));
        let expected = naive::naive_count(&self.collection, &q) as u64;

        // PRIX.
        self.prix.clear_cache().expect("cache clear");
        let out = view.query(&q).expect("prix query");
        let prix = Measurement {
            seconds: out.elapsed.as_secs_f64(),
            pages: out.io.physical_reads + out.io.seg_block_fetches,
            matches: out.matches.len() as u64,
        };

        // ViST: time the native matching only (verification is our
        // correctness add-on, not part of ViST).
        self.vist_pool.clear().expect("cache clear");
        let before = self.vist_pool.snapshot();
        let start = Instant::now();
        let vist_out = self.vist.execute(&q, &self.collection).expect("vist query");
        // Native phase I/O is everything up to verification, which does
        // no storage reads (it walks the in-memory collection).
        let vist_elapsed = start.elapsed();
        let vist_io = self.vist_pool.snapshot().since(&before);
        let vist = Measurement {
            seconds: vist_elapsed.as_secs_f64(),
            pages: vist_io.physical_reads,
            matches: vist_out.verified_matches,
        };

        // TwigStack.
        self.ts_pool.clear().expect("cache clear");
        let before = self.ts_pool.snapshot();
        let start = Instant::now();
        let ts = TwigJoin::new(self.ts.streams())
            .execute(&q, Algorithm::TwigStack)
            .expect("twigstack");
        let twigstack = Measurement {
            seconds: start.elapsed().as_secs_f64(),
            pages: self.ts_pool.snapshot().since(&before).physical_reads,
            matches: ts.stats.matches,
        };

        // TwigStackXB.
        self.ts_pool.clear().expect("cache clear");
        let before = self.ts_pool.snapshot();
        let start = Instant::now();
        let xb = TwigJoin::with_xbtrees(self.ts.streams(), self.ts.xbtrees())
            .execute(&q, Algorithm::TwigStackXB)
            .expect("twigstackxb");
        let twigstackxb = Measurement {
            seconds: start.elapsed().as_secs_f64(),
            pages: self.ts_pool.snapshot().since(&before).physical_reads,
            matches: xb.stats.matches,
        };

        QueryRow {
            id: id.to_string(),
            xpath: xpath.to_string(),
            prix,
            prix_index: out.index_used.to_string(),
            vist,
            vist_candidates: vist_out.stats.candidates,
            vist_false_alarms: vist_out.stats.false_alarms,
            twigstack,
            twigstackxb,
            expected,
        }
    }
}

/// Formats seconds the way the paper's tables do.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.000_1 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats PRIX's cold reads: 4 KiB blocks, and the 8 KiB pages they
/// come to, the unit of the ViST and TwigStack columns beside them.
pub fn fmt_blocks(blocks: u64) -> String {
    format!("{blocks} blocks ({:.1} pages)", blocks as f64 / 2.0)
}

/// Renders a PRIX-vs-ViST table (the shape of Tables 4–6).
pub fn render_prix_vs_vist(title: &str, rows: &[QueryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str("| Query | PRIX time | PRIX IO | ViST time | ViST IO | matches |\n");
    out.push_str("|-------|-----------|---------|-----------|---------|---------|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} pages | {} |\n",
            r.id,
            fmt_secs(r.prix.seconds),
            fmt_blocks(r.prix.pages),
            fmt_secs(r.vist.seconds),
            r.vist.pages,
            r.prix.matches,
        ));
    }
    out
}

/// Renders a TwigStack-vs-TwigStackXB table (the shape of Table 7).
pub fn render_ts_vs_xb(title: &str, rows: &[QueryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str("| Query | TwigStack time | TwigStack IO | TwigStackXB time | TwigStackXB IO |\n");
    out.push_str("|-------|----------------|--------------|------------------|----------------|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} pages | {} | {} pages |\n",
            r.id,
            fmt_secs(r.twigstack.seconds),
            r.twigstack.pages,
            fmt_secs(r.twigstackxb.seconds),
            r.twigstackxb.pages,
        ));
    }
    out
}

/// Renders a PRIX-vs-TwigStackXB table (the shape of Tables 8–9).
pub fn render_prix_vs_xb(title: &str, rows: &[QueryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str("| Query | PRIX time | PRIX IO | TwigStackXB time | TwigStackXB IO |\n");
    out.push_str("|-------|-----------|---------|------------------|----------------|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} pages |\n",
            r.id,
            fmt_secs(r.prix.seconds),
            fmt_blocks(r.prix.pages),
            fmt_secs(r.twigstackxb.seconds),
            r.twigstackxb.pages,
        ));
    }
    out
}

/// Renders the Figure 6 series: elapsed time per query per engine.
pub fn render_figure6(rows: &[QueryRow]) -> String {
    let mut out = String::new();
    out.push_str("\n## Figure 6 — elapsed time per query (seconds)\n\n");
    out.push_str("| Query | PRIX | ViST | TwigStack | TwigStackXB |\n");
    out.push_str("|-------|------|------|-----------|-------------|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.5} | {:.5} | {:.5} | {:.5} |\n",
            r.id, r.prix.seconds, r.vist.seconds, r.twigstack.seconds, r.twigstackxb.seconds,
        ));
    }
    out
}

/// Serializes rows to JSON (hand-rolled: the workspace is dependency-free
/// by design — see README "Building offline"; fields are numeric or
/// simple strings).
pub fn rows_to_json(rows: &[QueryRow]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn m(v: &Measurement) -> String {
        format!(
            r#"{{"seconds":{},"pages":{},"matches":{}}}"#,
            v.seconds, v.pages, v.matches
        )
    }
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"{{"id":"{}","xpath":"{}","prix":{},"prix_index":"{}","vist":{},"vist_candidates":{},"vist_false_alarms":{},"twigstack":{},"twigstackxb":{},"expected":{}}}"#,
                esc(&r.id),
                esc(&r.xpath),
                m(&r.prix),
                esc(&r.prix_index),
                m(&r.vist),
                r.vist_candidates,
                r.vist_false_alarms,
                m(&r.twigstack),
                m(&r.twigstackxb),
                r.expected
            )
        })
        .collect();
    format!("[\n  {}\n]\n", body.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_datagen::queries::queries_for;

    #[test]
    fn workbench_runs_the_dblp_workload() {
        let mut wb = Workbench::setup(Dataset::Dblp, 0.025, 11);
        for pq in queries_for(Dataset::Dblp) {
            let row = wb.run_query(pq.id, pq.xpath);
            assert_eq!(row.prix.matches, pq.expected_matches, "{}", pq.id);
            assert_eq!(row.vist.matches, pq.expected_matches, "{}", pq.id);
            assert_eq!(row.twigstack.matches, pq.expected_matches, "{}", pq.id);
            assert_eq!(row.twigstackxb.matches, pq.expected_matches, "{}", pq.id);
            assert_eq!(row.expected, pq.expected_matches, "{}", pq.id);
            assert!(row.prix.pages > 0, "{}: cold run must read pages", pq.id);
        }
    }

    /// Two builds of one collection lay the TwigStack streams and
    /// XB-trees out alike, so every query reads the same pages: Table 7's
    /// IO columns do not change from run to run.
    #[test]
    fn two_builds_read_the_same_twigstack_pages() {
        let pages = |wb: &mut Workbench| -> Vec<(u64, u64)> {
            queries_for(Dataset::Dblp)
                .into_iter()
                .map(|pq| {
                    let row = wb.run_query(pq.id, pq.xpath);
                    (row.twigstack.pages, row.twigstackxb.pages)
                })
                .collect()
        };
        let first = pages(&mut Workbench::setup(Dataset::Dblp, 0.025, 5));
        assert_eq!(pages(&mut Workbench::setup(Dataset::Dblp, 0.025, 5)), first);
    }

    #[test]
    fn tables_render() {
        let mut wb = Workbench::setup(Dataset::Dblp, 0.025, 3);
        let row = wb.run_query("Q2", "//www[./editor]/url");
        let t = render_prix_vs_vist("Table", std::slice::from_ref(&row));
        assert!(t.contains("Q2"));
        let t = render_ts_vs_xb("Table", std::slice::from_ref(&row));
        assert!(t.contains("pages"));
        let t = render_prix_vs_xb("Table", std::slice::from_ref(&row));
        assert!(t.contains("PRIX"));
        let t = render_figure6(&[row]);
        assert!(t.contains("Figure 6"));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.00000012).contains("µs"));
        assert!(fmt_secs(0.012).contains("ms"));
        assert!(fmt_secs(1.5).contains("s"));
    }
}
