//! Label interning.
//!
//! Element tags and text values share a single symbol space: the paper
//! treats value nodes as ordinary labeled tree nodes (§2), and the
//! Extended Prüfer sequences of §5.6 mix tag and value labels freely.

use std::collections::HashMap;
use std::fmt;

/// An interned label (element tag or text value).
///
/// `Sym` is a dense `u32` handle into a [`SymbolTable`]; comparing two
/// symbols for equality is an integer compare, which is what makes
/// sequence matching cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional interner mapping label strings to dense [`Sym`] handles.
///
/// A collection of XML documents shares one `SymbolTable` so that a tag
/// used in many documents maps to the same symbol everywhere — a
/// prerequisite for the per-tag Trie-Symbol indexes of paper §5.2.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    by_name: HashMap<String, Sym>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Sym(u32::try_from(self.names.len()).expect("symbol table overflow"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Looks up an already-interned name without inserting.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for a symbol.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The names of the symbols from id `first` on, in interning order
    /// (what a writer that has persisted the first `first` still owes).
    ///
    /// # Panics
    /// Panics if `first` is past the end of the table.
    pub fn names_from(&self, first: usize) -> &[String] {
        &self.names[first..]
    }

    /// Iterates over `(Sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

/// Anything that can resolve a label to a [`Sym`], interning on miss.
///
/// Query parsing needs symbols for every label in an XPath string, but
/// a *reader* must not mutate the shared table it resolves against —
/// snapshot isolation hands many threads the same immutable
/// [`SymbolTable`]. The two implementations split the use cases:
/// `SymbolTable` itself (document ingest, owning callers) interns for
/// real; [`ScratchSyms`] resolves against a frozen table and parks
/// unknown labels in a private overlay.
pub trait InternSyms {
    /// Resolves `name`, interning it if unseen. Idempotent.
    fn intern_sym(&mut self, name: &str) -> Sym;
}

impl InternSyms for SymbolTable {
    fn intern_sym(&mut self, name: &str) -> Sym {
        self.intern(name)
    }
}

/// A read-only view of a [`SymbolTable`] with a private overlay for
/// unknown labels.
///
/// Labels present in the base table resolve to their real symbols;
/// unknown labels get fresh symbols past the end of the base table.
/// Such a symbol occurs in **no** indexed document — every per-label
/// structure treats it as absent (empty tag-index range, MaxGap 0) —
/// so a query mentioning it simply matches nothing, which is exactly
/// the answer the snapshot it was parsed against must give.
pub struct ScratchSyms<'a> {
    base: &'a SymbolTable,
    extra: Vec<String>,
}

impl<'a> ScratchSyms<'a> {
    /// A scratch resolver over `base`.
    pub fn new(base: &'a SymbolTable) -> Self {
        ScratchSyms {
            base,
            extra: Vec::new(),
        }
    }

    /// Number of labels that missed the base table.
    pub fn unknown(&self) -> usize {
        self.extra.len()
    }
}

impl InternSyms for ScratchSyms<'_> {
    fn intern_sym(&mut self, name: &str) -> Sym {
        if let Some(s) = self.base.lookup(name) {
            return s;
        }
        let base_len = self.base.len();
        if let Some(i) = self.extra.iter().position(|n| n == name) {
            return Sym((base_len + i) as u32);
        }
        let s = Sym(u32::try_from(base_len + self.extra.len()).expect("symbol table overflow"));
        self.extra.push(name.to_owned());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("book");
        let b = t.intern("book");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("book");
        let b = t.intern("author");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "book");
        assert_eq!(t.name(b), "author");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut t = SymbolTable::new();
        assert!(t.lookup("x").is_none());
        t.intern("x");
        assert_eq!(t.lookup("x"), Some(Sym(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn scratch_syms_resolve_known_and_park_unknown() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let mut scratch = ScratchSyms::new(&t);
        assert_eq!(scratch.intern_sym("a"), a);
        assert_eq!(scratch.intern_sym("b"), b);
        let ghost = scratch.intern_sym("ghost");
        assert_eq!(ghost, Sym(2), "first unknown lands past the base");
        assert_eq!(scratch.intern_sym("ghost"), ghost, "idempotent");
        assert_eq!(scratch.intern_sym("wight"), Sym(3));
        assert_eq!(scratch.unknown(), 2);
        assert_eq!(t.len(), 2, "the base table never grows");
    }

    #[test]
    fn tags_and_values_share_the_space() {
        let mut t = SymbolTable::new();
        let tag = t.intern("title");
        let val = t.intern("Semantic Analysis Patterns");
        assert_ne!(tag, val);
        // A value that happens to equal a tag maps to the same symbol:
        // labels are labels.
        assert_eq!(t.intern("title"), tag);
    }
}
