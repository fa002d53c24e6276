//! Regenerates every table and figure of the PRIX paper's evaluation.
//!
//! ```text
//! run_experiments [--scale S] [--seed N] [--json PATH] [--only T2,T4,F6,...]
//! ```
//!
//! * Table 2 — dataset statistics
//! * Table 3 — queries and twig-match counts
//! * Figure 6 — elapsed time, all queries × all engines
//! * Tables 4–6 — PRIX vs ViST (DBLP / SWISSPROT / TREEBANK)
//! * Table 7 — TwigStack vs TwigStackXB (DBLP)
//! * Tables 8–9 — PRIX vs TwigStackXB
//!
//! Absolute numbers differ from the paper's 2004 testbed; the expected
//! reproduction is the *shape*: who wins, by what rough factor, where
//! the crossovers sit (see EXPERIMENTS.md).
//!
//! The run exits 1 when PRIX, ViST, TwigStack, TwigStackXB or the naive
//! oracle counts a different number of matches for one of Table 3's
//! nine queries than the paper does.

use std::collections::BTreeSet;

use prix_bench::{
    render_figure6, render_prix_vs_vist, render_prix_vs_xb, render_ts_vs_xb, rows_to_json,
    QueryRow, Workbench,
};
use prix_datagen::{paper_queries, queries::queries_for, Dataset};

struct Args {
    scale: f64,
    seed: u64,
    json: Option<String>,
    only: Option<BTreeSet<String>>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.25,
        seed: 42,
        json: None,
        only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number")
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            "--only" => {
                args.only = Some(
                    it.next()
                        .expect("--only needs a list like T2,T4,F6")
                        .split(',')
                        .map(|s| s.trim().to_uppercase())
                        .collect(),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: run_experiments [--scale S] [--seed N] [--json PATH] [--only T2,T4,F6]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn wanted(only: &Option<BTreeSet<String>>, key: &str) -> bool {
    only.as_ref().is_none_or(|s| s.contains(key))
}

fn main() {
    let args = parse_args();
    println!(
        "# PRIX experiment run (scale {}, seed {})",
        args.scale, args.seed
    );

    let mut all_rows: Vec<QueryRow> = Vec::new();
    let mut report = String::new();

    let mut table2 = String::from(
        "\n## Table 2 — datasets\n\n\
         | Dataset | Size (MiB) | Elements | Attributes | Max depth | Sequences |\n\
         |---------|-----------:|---------:|-----------:|----------:|----------:|\n",
    );
    let mut table3 = String::from(
        "\n## Table 3 — queries\n\n\
         | Query | XPath | Dataset | Matches (paper) | Matches (measured) |\n\
         |-------|-------|---------|----------------:|-------------------:|\n",
    );

    for ds in Dataset::all() {
        eprintln!("building {ds} at scale {} ...", args.scale);
        let mut wb = Workbench::setup(ds, args.scale, args.seed);
        let st = wb.stats();
        table2.push_str(&format!(
            "| {} | {:.1} | {} | {} | {} | {} |\n",
            ds,
            st.size_mib(),
            st.elements,
            st.attributes,
            st.max_depth,
            st.sequences
        ));
        for pq in queries_for(ds) {
            eprintln!("  running {} ...", pq.id);
            let row = wb.run_query(pq.id, pq.xpath);
            table3.push_str(&format!(
                "| {} | `{}` | {} | {} | {} |\n",
                pq.id, pq.xpath, ds, pq.expected_matches, row.prix.matches
            ));
            all_rows.push(row);
        }
    }

    let rows = |ids: &[&str]| -> Vec<QueryRow> {
        ids.iter()
            .map(|id| {
                all_rows
                    .iter()
                    .find(|r| r.id == *id)
                    .unwrap_or_else(|| panic!("row {id} missing"))
                    .clone()
            })
            .collect()
    };

    if wanted(&args.only, "T2") {
        report.push_str(&table2);
    }
    if wanted(&args.only, "T3") {
        report.push_str(&table3);
    }
    if wanted(&args.only, "F6") {
        report.push_str(&render_figure6(&all_rows));
    }
    if wanted(&args.only, "T4") {
        report.push_str(&render_prix_vs_vist(
            "Table 4 — DBLP: PRIX vs ViST",
            &rows(&["Q1", "Q2", "Q3"]),
        ));
    }
    if wanted(&args.only, "T5") {
        report.push_str(&render_prix_vs_vist(
            "Table 5 — SWISSPROT: PRIX vs ViST",
            &rows(&["Q4", "Q5", "Q6"]),
        ));
    }
    if wanted(&args.only, "T6") {
        report.push_str(&render_prix_vs_vist(
            "Table 6 — TREEBANK: PRIX vs ViST",
            &rows(&["Q7", "Q8", "Q9"]),
        ));
    }
    if wanted(&args.only, "T7") {
        report.push_str(&render_ts_vs_xb(
            "Table 7 — DBLP: TwigStack vs TwigStackXB",
            &rows(&["Q1", "Q2", "Q3"]),
        ));
    }
    if wanted(&args.only, "T8") {
        report.push_str(&render_prix_vs_xb(
            "Table 8 — PRIX vs TwigStackXB (comparable cases)",
            &rows(&["Q1", "Q5", "Q7"]),
        ));
    }
    if wanted(&args.only, "T9") {
        report.push_str(&render_prix_vs_xb(
            "Table 9 — PRIX vs TwigStackXB (PRIX wins)",
            &rows(&["Q2", "Q6", "Q8"]),
        ));
    }

    // §7 future work: "explore the behavior of the PRIX system for
    // different query characteristics such as the cardinality of result
    // sets". A sweep of DBLP queries ordered by result cardinality.
    if wanted(&args.only, "SWEEP") {
        eprintln!("running cardinality sweep ...");
        let mut wb = Workbench::setup(Dataset::Dblp, args.scale, args.seed);
        let sweep_queries: Vec<(&str, &str)> = vec![
            ("S1", r#"//title[text()="Semantic Analysis Patterns"]"#),
            ("S2", r#"//inproceedings[./author="Jim Gray"]"#),
            ("S3", "//www[./editor]/url"),
            ("S4", "//book/publisher"),
            ("S5", "//phdthesis/author"),
            ("S6", r#"//article[./journal="TODS"]"#),
            ("S7", "//article[./editor]/url"),
            ("S8", "//inproceedings[./booktitle]/year"),
            ("S9", "//inproceedings/author"),
        ];
        let mut rows: Vec<QueryRow> = sweep_queries
            .iter()
            .map(|(id, xp)| wb.run_query(id, xp))
            .collect();
        rows.sort_by_key(|r| r.prix.matches);
        report.push_str(
            "\n## Cardinality sweep (paper §7 future work) — DBLP, sorted by result size\n\n",
        );
        report.push_str(
            "| Query | Matches | PRIX time | PRIX IO | TwigStackXB time | TwigStackXB IO |\n",
        );
        report.push_str(
            "|-------|--------:|-----------|--------:|------------------|---------------:|\n",
        );
        for r in &rows {
            report.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                r.id,
                r.prix.matches,
                prix_bench::fmt_secs(r.prix.seconds),
                prix_bench::fmt_blocks(r.prix.pages),
                prix_bench::fmt_secs(r.twigstackxb.seconds),
                r.twigstackxb.pages,
            ));
        }
        all_rows.extend(rows);
    }

    println!("{report}");

    // Sanity line: every engine's count, and the oracle's, equals
    // Table 3; any mismatch fails the run.
    let mut ok = true;
    for pq in paper_queries() {
        let row = all_rows.iter().find(|r| r.id == pq.id).unwrap();
        let counts = [
            ("PRIX", row.prix.matches),
            ("ViST", row.vist.matches),
            ("TwigStack", row.twigstack.matches),
            ("TwigStackXB", row.twigstackxb.matches),
            ("oracle", row.expected),
        ];
        for (engine, found) in counts {
            if found != pq.expected_matches {
                println!(
                    "!! {}: expected {} matches, {engine} found {found}",
                    pq.id, pq.expected_matches
                );
                ok = false;
            }
        }
    }
    println!(
        "\nresult counts vs Table 3: {}",
        if ok {
            "ALL MATCH"
        } else {
            "MISMATCH (see above)"
        }
    );

    if let Some(path) = args.json {
        std::fs::write(&path, rows_to_json(&all_rows)).expect("write json");
        println!("wrote {path}");
    }
    if !ok {
        std::process::exit(1);
    }
}
