//! Document collections.
//!
//! PRIX indexes a collection Δ of XML documents (paper Table 1). A
//! [`Collection`] owns the documents and the symbol table they share, and
//! hands out stable [`DocId`]s.

use crate::parser::{parse_document, ParseError};
use crate::stats::CollectionStats;
use crate::sym::{Sym, SymbolTable};
use crate::tree::XmlTree;

/// Identifier of a document within a [`Collection`] (dense, 0-based).
pub type DocId = u32;

/// A set of XML document trees over one shared [`SymbolTable`].
#[derive(Debug, Default, Clone)]
pub struct Collection {
    syms: SymbolTable,
    docs: Vec<XmlTree>,
    /// Bytes of source XML text, when documents were parsed from text.
    source_bytes: u64,
    /// Count of nodes that came from XML attributes (for Table 2 stats).
    attribute_nodes: u64,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses `text` as one document and adds it.
    pub fn add_xml(&mut self, text: &str) -> Result<DocId, ParseError> {
        let tree = parse_document(text, &mut self.syms)?;
        self.source_bytes += text.len() as u64;
        Ok(self.push(tree))
    }

    /// Parses `text` and splits it into one document per child of the
    /// root element — how a monolithic export like the real DBLP file
    /// (one `<dblp>` root wrapping hundreds of thousands of records)
    /// becomes a collection of record trees, one Prüfer sequence each
    /// (paper Table 2: 328 858 sequences from one file).
    ///
    /// Root-level text is ignored; returns the new ids.
    pub fn add_xml_split(&mut self, text: &str) -> Result<Vec<DocId>, ParseError> {
        let tree = parse_document(text, &mut self.syms)?;
        self.source_bytes += text.len() as u64;
        Ok(tree.element_children().map(|t| self.push(t)).collect())
    }

    /// Adds an already-built tree (must use this collection's symbol
    /// table, e.g. via [`Collection::symbols_mut`]).
    pub fn add_tree(&mut self, tree: XmlTree) -> DocId {
        self.push(tree)
    }

    fn push(&mut self, tree: XmlTree) -> DocId {
        let id = u32::try_from(self.docs.len()).expect("too many documents");
        self.docs.push(tree);
        id
    }

    /// Records that `n` nodes of previously added documents represent XML
    /// attributes (generators call this for Table 2 accounting).
    pub fn note_attributes(&mut self, n: u64) {
        self.attribute_nodes += n;
    }

    /// Records source size for documents added via [`Self::add_tree`].
    pub fn note_source_bytes(&mut self, n: u64) {
        self.source_bytes += n;
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Mutable access to the shared symbol table (for builders).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.syms
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` iff the collection has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document with id `id`.
    pub fn doc(&self, id: DocId) -> &XmlTree {
        &self.docs[id as usize]
    }

    /// Iterates over `(DocId, &XmlTree)`.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &XmlTree)> {
        self.docs.iter().enumerate().map(|(i, t)| (i as DocId, t))
    }

    /// Interns (or looks up) a label.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.syms.intern(name)
    }

    /// Computes the Table 2 statistics of this collection.
    pub fn stats(&self) -> CollectionStats {
        let mut elements = 0u64;
        let mut values = 0u64;
        let mut max_depth = 0usize;
        let mut total_nodes = 0u64;
        for t in &self.docs {
            elements += t.element_count() as u64;
            values += t.text_count() as u64;
            max_depth = max_depth.max(t.max_depth());
            total_nodes += t.len() as u64;
        }
        CollectionStats {
            size_bytes: self.source_bytes,
            elements,
            attributes: self.attribute_nodes,
            values,
            max_depth,
            sequences: self.docs.len() as u64,
            total_nodes,
        }
    }

    /// Total node count across all documents — the quantity PRIX's index
    /// size is linear in (paper §5.2.2).
    pub fn total_nodes(&self) -> u64 {
        self.docs.iter().map(|t| t.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_xml_parses_and_assigns_ids() {
        let mut c = Collection::new();
        let a = c.add_xml("<a><b/></a>").unwrap();
        let b = c.add_xml("<x>v</x>").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.doc(a).len(), 2);
    }

    #[test]
    fn symbols_are_shared_across_documents() {
        let mut c = Collection::new();
        c.add_xml("<a><b/></a>").unwrap();
        c.add_xml("<b><a/></b>").unwrap();
        // "a" and "b" each interned once.
        assert_eq!(c.symbols().len(), 2);
    }

    #[test]
    fn stats_reflect_all_documents() {
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        c.add_xml("<a><b><c/></b></a>").unwrap();
        let s = c.stats();
        assert_eq!(s.sequences, 2);
        assert_eq!(s.elements, 5);
        assert_eq!(s.values, 1);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.total_nodes, 6);
        assert!(s.size_bytes > 0);
    }

    #[test]
    fn add_xml_split_creates_one_doc_per_record() {
        let mut c = Collection::new();
        let ids = c
            .add_xml_split(
                "<dblp><article><title>A</title></article>\
                 <inproceedings><title>B</title></inproceedings>\
                 <www><url>u</url></www></dblp>",
            )
            .unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(c.len(), 3);
        let syms = c.symbols();
        assert_eq!(syms.name(c.doc(0).label(c.doc(0).root())), "article");
        assert_eq!(syms.name(c.doc(2).label(c.doc(2).root())), "www");
        // Each record is a complete standalone tree.
        assert_eq!(c.doc(0).len(), 3);
        assert_eq!(c.doc(0).max_depth(), 3);
    }

    #[test]
    fn split_ignores_root_level_text() {
        let mut c = Collection::new();
        let ids = c
            .add_xml_split("<r>noise<a><b/></a>more noise<c/></r>")
            .unwrap();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn split_records_keep_attributes_and_may_be_deep() {
        let mut c = Collection::new();
        c.add_xml_split("<dblp><article key=\"k1\"><title>A</title></article></dblp>")
            .unwrap();
        // The key attribute became a subelement with a text child.
        assert_eq!(c.doc(0).len(), 5);
        let deep = format!("<r>{}{}</r>", "<d>".repeat(10_000), "</d>".repeat(10_000));
        let ids = c.add_xml_split(&deep).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(c.doc(ids[0]).len(), 10_000);
    }
}
