//! A guided tour of the PRIX machinery on one small document: Prüfer
//! sequences (§3), subsequence filtering (§4.1), the refinement phases
//! (§4.2–§4.4), and the virtual trie's labels (§5.2.1).
//!
//! ```sh
//! cargo run --example index_anatomy
//! ```

use prix::prufer::{subsequence_positions, ExtendedTree, PruferSeq};
use prix::storage::segment::label_paths;
use prix::xml::{parse_document, Sym, SymbolTable};

fn main() {
    let mut syms = SymbolTable::new();
    // The running example of the paper (Figure 2 is similar in spirit).
    let doc = parse_document(
        "<A><C/><B><C><D/></C><C><D/><E/></C></B><C><C/></C><D><E><G/><F/><F/></E></D></A>",
        &mut syms,
    )
    .expect("valid XML");

    // LPS / NPS construction (Example 1).
    let seq = PruferSeq::regular(&doc);
    let lps: Vec<&str> = seq.lps.iter().map(|&s| syms.name(s)).collect();
    println!("document has {} nodes", doc.len());
    println!("LPS(T) = {}", lps.join(" "));
    println!(
        "NPS(T) = {}",
        seq.nps
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Extended sequences (§5.6) pull leaf labels in.
    let dummy = syms.intern("\u{1}dummy");
    let ext = ExtendedTree::build(&doc, dummy);
    let eseq = PruferSeq::regular(&ext.tree);
    println!(
        "Extended LPS has {} elements (regular: {})",
        eseq.len(),
        seq.len()
    );

    // Filtering by subsequence matching (Example 2): the query twig
    // B//E with LPS(Q) built by hand.
    let b = syms.lookup("B").unwrap();
    let a = syms.lookup("A").unwrap();
    let hits = subsequence_positions(&[b, a], &seq.lps, usize::MAX);
    println!(
        "\nLPS(Q) = B A matches {} subsequences of LPS(T): {:?}",
        hits.len(),
        hits
    );
    println!("(each position p is the deletion of data node p — Lemma 1)");

    // The virtual trie over both sequences, labeled exactly (§5.2.1):
    // every node's (LeftPos, RightPos) range contains its descendants'.
    let paths: Vec<(Vec<u32>, u32)> = [(&seq.lps, 0), (&eseq.lps, 1)]
        .into_iter()
        .map(|(lps, doc)| (lps.iter().map(|s| s.0).collect(), doc))
        .collect();
    // No fine gaps: the example prints labels, not pruning bounds.
    let zeros = vec![0; eseq.len()];
    let (mut tags, ends, stats) = label_paths(
        paths
            .iter()
            .map(|(p, doc)| (&p[..], &zeros[..p.len()], *doc)),
    );
    println!(
        "\nvirtual trie: {} nodes, {} paths",
        stats.nodes, stats.leaves
    );
    tags.sort_by_key(|t| t.left);
    for t in &tags {
        println!(
            "  {:>width$}{} [{}, {}]",
            "",
            syms.name(Sym(t.sym)),
            t.left,
            t.right,
            width = 2 * (t.level as usize - 1)
        );
    }
    for e in &ends {
        println!("sequence {} ends at LeftPos {}", e.doc, e.left);
    }
}
