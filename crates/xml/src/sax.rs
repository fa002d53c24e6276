//! Streaming (SAX-style) parsing.
//!
//! [`parse_sax`] drives a [`SaxHandler`] through the same XML subset as
//! [`crate::parse_document`], without materializing a tree. The paper's
//! §5.6 observes that "SAX parsers already have separate callback
//! routines for values, attributes and elements" — this module is that
//! interface; [`Parser::parse`] builds its tree through it.

use crate::parser::{ParseError, Parser};

/// Callbacks for streaming parse events.
///
/// Attributes arrive through [`SaxHandler::attribute`] *before* any
/// children of the element; per paper §2 they are conceptually
/// subelements, and [`Parser::parse`] materializes them as such.
pub trait SaxHandler {
    /// `<name ...>` was opened (attributes follow).
    fn start_element(&mut self, name: &str);
    /// One `name="value"` pair on the current element.
    fn attribute(&mut self, name: &str, value: &str);
    /// Trimmed, entity-decoded character data (never whitespace-only).
    fn text(&mut self, value: &str);
    /// The current element was closed.
    fn end_element(&mut self, name: &str);
}

/// Streams `input` through `handler`.
pub fn parse_sax(input: &str, handler: &mut dyn SaxHandler) -> Result<(), ParseError> {
    Parser::new(input).parse_sax(handler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl SaxHandler for Recorder {
        fn start_element(&mut self, name: &str) {
            self.0.push(format!("<{name}>"));
        }
        fn attribute(&mut self, name: &str, value: &str) {
            self.0.push(format!("@{name}={value}"));
        }
        fn text(&mut self, value: &str) {
            self.0.push(format!("'{value}'"));
        }
        fn end_element(&mut self, name: &str) {
            self.0.push(format!("</{name}>"));
        }
    }

    #[test]
    fn events_arrive_in_document_order() {
        let mut r = Recorder::default();
        parse_sax(r#"<a x="1"><b>hi</b><c/></a>"#, &mut r).unwrap();
        assert_eq!(
            r.0,
            vec!["<a>", "@x=1", "<b>", "'hi'", "</b>", "<c>", "</c>", "</a>"]
        );
    }

    #[test]
    fn entities_and_cdata_are_decoded_in_text_events() {
        let mut r = Recorder::default();
        parse_sax("<a>x &lt; y<![CDATA[ & z]]></a>", &mut r).unwrap();
        assert_eq!(r.0, vec!["<a>", "'x < y & z'", "</a>"]);
    }

    #[test]
    fn whitespace_only_text_is_suppressed() {
        let mut r = Recorder::default();
        parse_sax("<a>\n  <b/>\n</a>", &mut r).unwrap();
        assert_eq!(r.0, vec!["<a>", "<b>", "</b>", "</a>"]);
    }

    #[test]
    fn malformed_input_errors_cleanly() {
        let mut r = Recorder::default();
        assert!(parse_sax("<a><b></a>", &mut r).is_err());
        assert!(parse_sax("", &mut r).is_err());
    }
}
