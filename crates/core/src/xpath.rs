//! XPath-subset parser for twig queries.
//!
//! Covers the query class evaluated in the paper (Table 3): location
//! paths with `/` and `//` axes, `*` wildcard steps, attribute steps
//! (`@name`, equivalent to a subelement per §2), and predicates that are
//! either existential relative paths (`[./editor]`, `[.//Author]`) or
//! equality tests against a string (`[./year="1990"]`,
//! `[text()="..."]`).
//!
//! Beyond the paper's workload, predicates may compare leaf values
//! through the valix (`crate::valix`): `[path op literal]` with
//! `= != < <= > >=` against an unquoted numeric literal
//! (`[price < 10]`, `[./price >= 2.5]`), `=` against a quoted string
//! (`[@id = "x7"]` on a *bare* path), and
//! `[starts-with(path, "prefix")]`. The path may be `.`-relative,
//! bare (`price`, sugar for `./price`), or an attribute (`@id`). A
//! dotted path with `= "string"` keeps the paper's semantics — a
//! structural text-leaf match — so the historical grammar is
//! unchanged; every other comparison becomes a
//! [`crate::query::ValuePred`] carried alongside the structural twig.
//!
//! `*` steps between named steps fold into the edge constraint
//! ([`EdgeKind::Exactly`]), matching the paper's `*` processing (§4.5).

use std::fmt;

use prix_prufer::EdgeKind;
use prix_xml::InternSyms;

use crate::query::{PredOp, PredValue, TwigBuilder, TwigQuery};

/// Error from parsing an XPath expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

/// Parses an XPath expression into a [`TwigQuery`].
///
/// Accepts any [`InternSyms`] resolver: a `&mut SymbolTable` for owning
/// callers (document ingest, tests), or a [`prix_xml::ScratchSyms`]
/// overlay when parsing against a shared read-only snapshot — labels
/// unknown to the snapshot resolve to scratch symbols that match
/// nothing, without mutating the table other readers share.
///
/// ```
/// use prix_xml::SymbolTable;
/// use prix_core::parse_xpath;
/// let mut syms = SymbolTable::new();
/// let q = parse_xpath(r#"//Entry[./Org="Piroplasmida"][.//Author]//from"#, &mut syms).unwrap();
/// assert_eq!(q.display(&syms), r#"Entry(Org("Piroplasmida"),~Author,~from)"#);
/// ```
pub fn parse_xpath<S: InternSyms>(input: &str, syms: &mut S) -> Result<TwigQuery, XPathError> {
    let mut p = Lexer {
        input: input.as_bytes(),
        pos: 0,
    };
    // Leading axis.
    let absolute = match (p.eat("//"), p.eat("/")) {
        (true, _) => false,
        (false, true) => true,
        // A bare name is treated like "//name".
        (false, false) => false,
    };
    let (root_name, _) = p.parse_step_name()?;
    let mut b = TwigBuilder::new(syms, &root_name);
    if absolute {
        b.absolute();
    }
    // Depth of open nodes created along the *main path* below the root.
    let mut open_depth = 0usize;
    loop {
        // Predicates of the current step.
        while p.peek() == Some(b'[') {
            p.pos += 1;
            parse_predicate(&mut p, &mut b)?;
            p.expect("]")?;
        }
        if p.at_end() {
            break;
        }
        let edge = p.parse_axis_and_stars()?;
        let (name, is_text) = p.parse_step_name()?;
        if is_text {
            return Err(p.err("text() is only valid inside a predicate"));
        }
        b.child(&name, edge);
        open_depth += 1;
    }
    let _ = open_depth;
    Ok(b.finish())
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn err(&self, message: impl Into<String>) -> XPathError {
        XPathError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XPathError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Parses `/`, `//`, and any interleaved `*` steps, returning the
    /// resulting edge constraint for the next named step.
    ///
    /// `/a/*/b` → `Exactly(2)` on `b`; `//a` → `Descendant`;
    /// `/*//b` → `Descendant` (a `//` anywhere makes the distance
    /// unbounded).
    fn parse_axis_and_stars(&mut self) -> Result<EdgeKind, XPathError> {
        let mut descendant = false;
        let mut stars: u32 = 0;
        loop {
            if self.eat("//") {
                descendant = true;
            } else if self.eat("/") {
                // child axis: nothing extra
            } else {
                return Err(self.err("expected `/` or `//`"));
            }
            if self.peek() == Some(b'*') {
                self.pos += 1;
                stars += 1;
                continue; // another axis must follow
            }
            break;
        }
        Ok(if descendant {
            EdgeKind::Descendant
        } else if stars > 0 {
            EdgeKind::Exactly(stars + 1)
        } else {
            EdgeKind::Child
        })
    }

    /// Parses a step name: QName, `@name` (attribute = subelement), or
    /// `text()` (returned with the flag set).
    fn parse_step_name(&mut self) -> Result<(String, bool), XPathError> {
        if self.eat("text()") {
            return Ok((String::new(), true));
        }
        let start = self.pos;
        if self.peek() == Some(b'@') {
            self.pos += 1;
        }
        let name_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == name_start {
            return Err(XPathError {
                offset: start,
                message: "expected a step name".into(),
            });
        }
        let name = std::str::from_utf8(&self.input[name_start..self.pos])
            .map_err(|_| self.err("step name is not UTF-8"))?
            .to_owned();
        Ok((name, false))
    }

    fn parse_string(&mut self) -> Result<String, XPathError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected a quoted string")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let s = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.err("string is not UTF-8"))?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }
}

/// Parses one predicate body (after `[`):
///
/// * `text() = string` — structural text-leaf equality,
/// * `starts-with(path, string)` — string-prefix value predicate,
/// * `path (op literal)?` — existential path, structural equality
///   (dotted path, `=`, quoted string), or a value predicate (any
///   comparison against a number; `=` against a string on a bare path).
fn parse_predicate<S: InternSyms>(
    p: &mut Lexer<'_>,
    b: &mut TwigBuilder<'_, S>,
) -> Result<(), XPathError> {
    skip_ws(p);
    if p.eat("text()") {
        skip_ws(p);
        p.expect("=")?;
        skip_ws(p);
        let v = p.parse_string()?;
        b.value(&v);
        skip_ws(p);
        return Ok(());
    }
    if p.eat("starts-with(") {
        skip_ws(p);
        let (depth, is_text) = parse_pred_path(p, b)?;
        if is_text {
            return Err(p.err("text() cannot be the target of starts-with(); use the parent step"));
        }
        skip_ws(p);
        p.expect(",")?;
        skip_ws(p);
        let v = p.parse_string()?;
        skip_ws(p);
        p.expect(")")?;
        b.pred(PredOp::StartsWith, PredValue::Str(v));
        for _ in 0..depth {
            b.up();
        }
        skip_ws(p);
        return Ok(());
    }
    let dotted = p.peek() == Some(b'.');
    let (depth, is_text) = parse_pred_path(p, b)?;
    if is_text {
        // `./text() = "v"` (possibly after steps) — text-leaf value
        // directly under the node the path descended to.
        skip_ws(p);
        p.expect("=")?;
        skip_ws(p);
        let v = p.parse_string()?;
        b.value(&v);
        for _ in 0..depth {
            b.up();
        }
        skip_ws(p);
        return Ok(());
    }
    skip_ws(p);
    if let Some(op) = parse_pred_op(p) {
        skip_ws(p);
        if matches!(p.peek(), Some(b'"' | b'\'')) {
            let v = p.parse_string()?;
            match op {
                // Dotted `= "s"` keeps the paper's structural
                // text-leaf semantics; bare paths get a value
                // predicate so equality probes the valix.
                PredOp::Eq if dotted => {
                    b.value(&v);
                }
                PredOp::Eq => {
                    b.pred(PredOp::Eq, PredValue::Str(v));
                }
                _ => {
                    return Err(p.err(format!(
                        "operator `{}` is not supported on strings; use `=` or starts-with()",
                        op.token()
                    )))
                }
            }
        } else {
            let n = parse_number(p)?;
            b.pred(op, PredValue::Num(n));
        }
    }
    for _ in 0..depth {
        b.up();
    }
    skip_ws(p);
    Ok(())
}

/// Parses the path part of a predicate: `.` followed by steps, or a
/// bare `name`/`@name` first step (sugar for `./name`). Returns the
/// number of steps descended and whether the path ended in `text()`
/// (the builder is left positioned at the descended node either way;
/// the caller unwinds `depth` levels when done).
fn parse_pred_path<S: InternSyms>(
    p: &mut Lexer<'_>,
    b: &mut TwigBuilder<'_, S>,
) -> Result<(usize, bool), XPathError> {
    let mut depth = 0usize;
    if !p.eat(".") {
        let (name, is_text) = p.parse_step_name()?;
        if is_text {
            return Ok((0, true));
        }
        b.child(&name, EdgeKind::Child);
        depth = 1;
    }
    while matches!(p.peek(), Some(b'/')) {
        let edge = p.parse_axis_and_stars()?;
        let (name, is_text) = p.parse_step_name()?;
        if is_text {
            return Ok((depth, true));
        }
        b.child(&name, edge);
        depth += 1;
    }
    Ok((depth, false))
}

/// Parses a comparison operator, longest-match first.
fn parse_pred_op(p: &mut Lexer<'_>) -> Option<PredOp> {
    for (tok, op) in [
        ("!=", PredOp::Ne),
        ("<=", PredOp::Le),
        (">=", PredOp::Ge),
        ("<", PredOp::Lt),
        (">", PredOp::Gt),
        ("=", PredOp::Eq),
    ] {
        if p.eat(tok) {
            return Some(op);
        }
    }
    None
}

/// Parses an unquoted numeric literal: `-?digits(.digits)?([eE][+-]?digits)?`.
fn parse_number(p: &mut Lexer<'_>) -> Result<f64, XPathError> {
    let start = p.pos;
    if matches!(p.peek(), Some(b'-' | b'+')) {
        p.pos += 1;
    }
    let mut digits = false;
    while matches!(p.peek(), Some(b'0'..=b'9')) {
        p.pos += 1;
        digits = true;
    }
    if p.peek() == Some(b'.') {
        p.pos += 1;
        while matches!(p.peek(), Some(b'0'..=b'9')) {
            p.pos += 1;
            digits = true;
        }
    }
    if !digits {
        p.pos = start;
        return Err(p.err("expected a quoted string or numeric literal"));
    }
    if matches!(p.peek(), Some(b'e' | b'E')) {
        p.pos += 1;
        if matches!(p.peek(), Some(b'-' | b'+')) {
            p.pos += 1;
        }
        let mut exp_digits = false;
        while matches!(p.peek(), Some(b'0'..=b'9')) {
            p.pos += 1;
            exp_digits = true;
        }
        if !exp_digits {
            return Err(p.err("expected exponent digits"));
        }
    }
    std::str::from_utf8(&p.input[start..p.pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| !n.is_nan())
        .ok_or_else(|| p.err("invalid numeric literal"))
}

fn skip_ws(p: &mut Lexer<'_>) {
    while matches!(p.peek(), Some(b' ' | b'\t')) {
        p.pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_xml::{ScratchSyms, SymbolTable};

    fn show(xpath: &str) -> String {
        let mut syms = SymbolTable::new();
        let q = parse_xpath(xpath, &mut syms).unwrap();
        q.display(&syms)
    }

    #[test]
    fn paper_query_q1() {
        assert_eq!(
            show(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#),
            r#"inproceedings(author("Jim Gray"),year("1990"))"#
        );
    }

    #[test]
    fn paper_query_q2() {
        assert_eq!(show("//www[./editor]/url"), "www(editor,url)");
    }

    #[test]
    fn paper_query_q3() {
        assert_eq!(
            show(r#"//title[text()="Semantic Analysis Patterns"]"#),
            r#"title("Semantic Analysis Patterns")"#
        );
    }

    #[test]
    fn paper_query_q4() {
        assert_eq!(
            show(r#"//Entry[./Keyword="Rhizomelic"]"#),
            r#"Entry(Keyword("Rhizomelic"))"#
        );
    }

    #[test]
    fn paper_query_q5() {
        assert_eq!(
            show(r#"//Entry/Ref[./Author="Mueller P"][./Author="Keller M"]"#),
            r#"Entry(Ref(Author("Mueller P"),Author("Keller M")))"#
        );
    }

    #[test]
    fn paper_query_q6() {
        assert_eq!(
            show(r#"//Entry[./Org="Piroplasmida"][.//Author]//from"#),
            r#"Entry(Org("Piroplasmida"),~Author,~from)"#
        );
    }

    #[test]
    fn paper_query_q7() {
        assert_eq!(show("//S//NP/SYM"), "S(~NP(SYM))");
    }

    #[test]
    fn paper_query_q8() {
        assert_eq!(show("//NP[./RBR_OR_JJR]/PP"), "NP(RBR_OR_JJR,PP)");
    }

    #[test]
    fn paper_query_q9() {
        assert_eq!(
            show("//NP/PP/NP[./NNS_OR_NN][./NN]"),
            "NP(PP(NP(NNS_OR_NN,NN)))"
        );
    }

    #[test]
    fn star_steps_fold_into_distance() {
        assert_eq!(show("//a/*/b"), "a(^2b)");
        assert_eq!(show("//a/*/*/b"), "a(^3b)");
        assert_eq!(show("//a/*//b"), "a(~b)");
        // Stars inside predicates too.
        assert_eq!(show("//a[./*/c]"), "a(^2c)");
    }

    #[test]
    fn attribute_steps_are_subelements() {
        assert_eq!(show(r#"//Entry[./@id="P1"]"#), r#"Entry(id("P1"))"#);
        assert_eq!(show("//Entry/@id"), "Entry(id)");
    }

    #[test]
    fn absolute_paths_set_the_flag() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("/dblp/inproceedings", &mut syms).unwrap();
        assert!(q.is_absolute());
        let q2 = parse_xpath("//dblp/inproceedings", &mut syms).unwrap();
        assert!(!q2.is_absolute());
    }

    #[test]
    fn nested_predicates_restore_the_path_position() {
        // The step after the predicates continues from the predicate
        // host, not from inside the predicate.
        assert_eq!(show("//a[./b/c]/d"), "a(b(c),d)");
    }

    #[test]
    fn single_quotes_work() {
        assert_eq!(show("//a[./b='x']"), r#"a(b("x"))"#);
    }

    #[test]
    fn errors_are_reported() {
        let mut syms = SymbolTable::new();
        assert!(parse_xpath("//a[", &mut syms).is_err());
        assert!(parse_xpath("//a[./b=\"x]", &mut syms).is_err());
        assert!(parse_xpath("//", &mut syms).is_err());
        assert!(parse_xpath("//a//", &mut syms).is_err());
        assert!(parse_xpath("a/text()", &mut syms).is_err());
    }

    #[test]
    fn numeric_predicates_parse_on_all_operators() {
        assert_eq!(show("//book[price < 10]"), "book(price{< 10})");
        assert_eq!(show("//book[./price <= 10.5]"), "book(price{<= 10.5})");
        assert_eq!(show("//book[price>2]"), "book(price{> 2})");
        assert_eq!(show("//book[price >= -1.5]"), "book(price{>= -1.5})");
        assert_eq!(show("//book[price = 10]"), "book(price{= 10})");
        assert_eq!(show("//book[price != 1e3]"), "book(price{!= 1000})");
    }

    #[test]
    fn string_predicates_parse_on_bare_and_attribute_paths() {
        assert_eq!(show(r#"//person[@id = "x7"]"#), r#"person(id{= "x7"})"#);
        assert_eq!(show(r#"//person[id = "x7"]"#), r#"person(id{= "x7"})"#);
        assert_eq!(
            show(r#"//person[starts-with(@id, "x")]"#),
            r#"person(id{starts-with "x"})"#
        );
        assert_eq!(
            show(r#"//a[starts-with(./b/c, "pre")]/d"#),
            r#"a(b(c{starts-with "pre"}),d)"#
        );
    }

    #[test]
    fn dotted_string_equality_keeps_structural_semantics() {
        // `./path = "s"` is the paper's structural text-leaf match,
        // not a value predicate — display and preds() must show that.
        let mut syms = SymbolTable::new();
        let q = parse_xpath(r#"//a[./b = "x"]"#, &mut syms).unwrap();
        assert!(q.preds().is_empty());
        assert_eq!(q.display(&syms), r#"a(b("x"))"#);
        // Bare-path `=` on a string goes through the valix instead.
        let q2 = parse_xpath(r#"//a[b = "x"]"#, &mut syms).unwrap();
        assert_eq!(q2.preds().len(), 1);
    }

    #[test]
    fn bare_existential_predicates_are_sugar_for_dotted() {
        assert_eq!(show("//www[editor]/url"), show("//www[./editor]/url"));
        assert_eq!(show("//a[b/c]/d"), show("//a[./b/c]/d"));
    }

    #[test]
    fn predicate_errors_never_panic() {
        let mut syms = SymbolTable::new();
        for bad in [
            "//book[price <]",
            "//book[price < ]",
            "//book[price < abc]",
            "//book[price !< 3]",
            "//book[price < 1e]",
            "//book[price < 3",
            "//a[b != \"x\"]",
            "//a[b < \"x\"]",
            "//a[starts-with(b)]",
            "//a[starts-with(b, 3)]",
            "//a[starts-with(b, \"x\"]",
            "//a[starts-with(text(), \"x\")]",
            "//a[price < 1.2.3]",
            "//a[= 3]",
        ] {
            assert!(parse_xpath(bad, &mut syms).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn predicate_on_the_current_node_targets_the_host() {
        // `[. < 10]` anchors the predicate on the step itself.
        let mut syms = SymbolTable::new();
        let q = parse_xpath("//price[. < 10]", &mut syms).unwrap();
        assert_eq!(q.preds().len(), 1);
        assert_eq!(q.preds()[0].node, q.tree().root());
        assert_eq!(q.display(&syms), "price{< 10}");
    }

    #[test]
    fn bare_name_is_relative() {
        let mut syms = SymbolTable::new();
        let q = parse_xpath("book", &mut syms).unwrap();
        assert!(!q.is_absolute());
        assert_eq!(q.tree().len(), 1);
    }

    #[test]
    fn scratch_parse_matches_owned_parse_and_never_mutates() {
        let mut syms = SymbolTable::new();
        for n in ["inproceedings", "author", "Jim Gray", "year", "1990"] {
            syms.intern(n);
        }
        let frozen = syms.clone();
        let xp = r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#;
        let owned = parse_xpath(xp, &mut syms.clone()).unwrap();
        let mut scratch = ScratchSyms::new(&frozen);
        let ro = parse_xpath(xp, &mut scratch).unwrap();
        assert_eq!(scratch.unknown(), 0);
        assert_eq!(ro.display(&frozen), owned.display(&syms));
        // Unknown labels parse fine and land past the frozen table.
        let mut scratch = ScratchSyms::new(&frozen);
        let ghost = parse_xpath("//inproceedings/ghost", &mut scratch).unwrap();
        assert_eq!(scratch.unknown(), 1);
        assert_eq!(frozen.len(), 5, "shared table untouched");
        assert_eq!(ghost.tree().len(), 2);
    }

    /// Whatever the string — arbitrary characters, multi-byte ones
    /// included, or a jumble of the brackets, quotes, operators and
    /// function names the grammar reacts to — `parse_xpath` returns
    /// `Ok` or `Err`, and what it accepts renders; neither panics.
    #[test]
    fn parse_xpath_never_panics() {
        use prix_testkit::{check, from_fn, Config};
        const ANY: &str = "aZ09 -_\té字🦀\0";
        const SHARP: &str = r#"[ ] ( ) ' " = != < <= > >= / // . .. * @ , | : :: text()
            starts-with( a b7 -1 1e308 NaN é"#;
        let any: Vec<char> = ANY.chars().collect();
        let sharp: Vec<&str> = SHARP.split_whitespace().collect();
        let strings = from_fn(move |rng| {
            let n = rng.below(40);
            let jumble = rng.chance(0.5);
            let mut s = String::new();
            for _ in 0..n {
                if jumble {
                    s.push_str(rng.pick::<&str>(&sharp));
                    if rng.chance(0.2) {
                        s.push(' ');
                    }
                } else if rng.chance(0.8) {
                    s.push(*rng.pick(&any));
                } else {
                    s.push(char::from_u32(rng.below(0x3000) as u32).unwrap_or('?'));
                }
            }
            s
        });
        check(
            "parse_xpath_never_panics",
            &Config::cases(20_000),
            &strings,
            |s| {
                let mut syms = SymbolTable::new();
                if let Ok(q) = parse_xpath(s, &mut syms) {
                    let _ = q.display(&syms);
                }
                Ok(())
            },
        );
    }
}
