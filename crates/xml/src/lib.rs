//! XML document model and parser for the PRIX system.
//!
//! XML documents are modeled as **ordered labeled trees** (paper §2): each
//! node corresponds to an element or a value, values occur at leaf nodes,
//! and attributes are represented as subelements of their owning element
//! (the paper makes "no special distinction between elements and
//! attributes").
//!
//! The crate provides:
//!
//! * [`SymbolTable`] / [`Sym`] — interning of tags and text values into a
//!   single label space, shared by every document of a collection,
//! * [`XmlTree`] — an arena-allocated ordered labeled tree with 1-based
//!   postorder numbering (the numbering scheme PRIX uses, paper §3.2),
//! * [`TreeBuilder`] — a push API used by the parser and by synthetic
//!   data generators,
//! * [`parse_document`] / [`Parser`] — a hand-written, dependency-free
//!   XML parser (elements, attributes, text, CDATA, comments, processing
//!   instructions, character/entity references),
//! * [`write_document`] — serialization back to XML text,
//! * [`Collection`] — a set of documents over one shared symbol table,
//!   with the statistics reported in Table 2 of the paper.

pub mod builder;
pub mod collection;
pub mod parser;
pub mod sax;
pub mod stats;
pub mod sym;
pub mod tree;
pub mod writer;

pub use builder::TreeBuilder;
pub use collection::{Collection, DocId};
pub use parser::{parse_document, ParseError, Parser};
pub use sax::{parse_sax, SaxHandler};
pub use stats::CollectionStats;
pub use sym::{InternSyms, ScratchSyms, Sym, SymbolTable};
pub use tree::{NodeId, NodeKind, PostNum, XmlTree};
pub use writer::write_document;
