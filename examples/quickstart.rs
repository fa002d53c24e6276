//! Quickstart: index a handful of XML documents and run twig queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use prix::core::{EngineConfig, PrixEngine};
use prix::xml::Collection;

fn main() {
    // 1. Load documents into a collection (one shared symbol table).
    let mut collection = Collection::new();
    collection
        .add_xml(
            r#"<book>
                 <title>Gone With The Wind</title>
                 <allauthors><author>Margaret Mitchell</author></allauthors>
                 <year>1936</year>
               </book>"#,
        )
        .expect("valid XML");
    collection
        .add_xml(
            r#"<book>
                 <title>The Art of Computer Programming</title>
                 <allauthors><author>Donald Knuth</author></allauthors>
                 <year>1968</year>
               </book>"#,
        )
        .expect("valid XML");
    collection
        .add_xml(r#"<article><title>Gone With The Wind</title><journal>Films</journal></article>"#)
        .expect("valid XML");

    // 2. Build the PRIX engine: documents become Prüfer sequences,
    //    bulk-built into one immutable tier of labeled virtual tries
    //    (RPIndex + EPIndex), here in memory.
    //    The engine keeps the symbols, not the trees; this example
    //    keeps its own copy to print what the matches point at.
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default())
        .expect("in-memory build cannot fail");

    // 3. Ask twig queries in the supported XPath subset, against a
    //    read view of the engine.
    let view = engine.snapshot();
    for xpath in [
        r#"//book[./title="Gone With The Wind"]"#,
        r#"//book[./allauthors/author]/year"#,
        r#"//title"#,
        r#"//book//author"#,
    ] {
        let query = view.parse_query(xpath).expect("valid XPath");
        let outcome = view.query(&query).expect("query");
        println!(
            "{xpath}\n  -> {} match(es) via {} ({} range queries, {} candidates)",
            outcome.matches.len(),
            outcome.index_used,
            outcome.stats.range_queries,
            outcome.stats.candidates,
        );
        for m in &outcome.matches {
            // The embedding maps every query node (by postorder number)
            // to a document node (by postorder number).
            let doc = collection.doc(m.doc);
            let labels: Vec<&str> = m
                .embedding
                .iter()
                .map(|&p| collection.symbols().name(doc.label_at(p)))
                .collect();
            println!("     doc {} nodes {:?} = {:?}", m.doc, m.embedding, labels);
        }
    }
}
