//! A tolerant parser for the HTML subset the simulated sites emit.
//!
//! Real-world listing pages are messy; the paper's scraper had to cope with
//! structure drift. This parser is therefore forgiving: unknown entities pass
//! through, unmatched closing tags are dropped, unclosed elements are closed
//! at end-of-input, and stray `<` characters are treated as text. It only
//! *errors* on input that cannot be a page at all.
//!
//! The parser borrows its input and copies each text run and attribute
//! value once, into the node that owns it: runs with no `&` are copied as
//! they are, the rest are decoded in one pass ([`unescape`]), and adjacent
//! runs decode straight into the text node they merge into.

use crate::atom::{Atom, AtomInterner};
use crate::node::{Document, Node};
use crate::render::{unescape, unescape_into};
use std::collections::BTreeMap;
use std::fmt;

/// Parse failure (rare by design — the parser is tolerant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "html parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Tags that never have children (must match the renderer's list).
const VOID_TAGS: &[&str] = &["br", "hr", "img", "input", "link", "meta"];

/// Parse a full page. Leading `<!DOCTYPE ...>` is skipped; if the input has
/// multiple top-level nodes they are wrapped in a synthetic `<html>` root.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let nodes = parse_fragment(input)?;
    let mut elements: Vec<Node> = nodes.into_iter().filter(|n| !is_blank_text(n)).collect();
    if !elements.iter().any(|n| n.tag().is_some()) {
        return Err(ParseError {
            reason: "no elements in input".into(),
        });
    }
    let root = if elements.len() == 1 && elements[0].tag().is_some() {
        elements.remove(0)
    } else {
        Node::Element {
            tag: Atom::new("html"),
            attrs: BTreeMap::new(),
            children: elements,
        }
    };
    Ok(Document::new(root))
}

fn is_blank_text(n: &Node) -> bool {
    matches!(n, Node::Text(t) if t.trim().is_empty())
}

/// An open element under construction: tag, attributes, children so far.
type Frame = (Atom, BTreeMap<Atom, String>, Vec<Node>);

/// Parse a fragment into a list of top-level nodes.
pub fn parse_fragment(input: &str) -> Result<Vec<Node>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    // One name interner per parse: repeated tag/attribute names resolve to
    // shared atoms instead of fresh lowercased strings per node.
    let mut names = AtomInterner::new();
    // Stack of open elements; a sentinel frame collects top-level nodes.
    let mut stack: Vec<Frame> = vec![(Atom::empty(), BTreeMap::new(), Vec::new())];

    while pos < bytes.len() {
        if bytes[pos] == b'<' {
            if input[pos..].starts_with("<!--") {
                // Comment: skip to -->
                match input[pos..].find("-->") {
                    Some(end) => {
                        pos += end + 3;
                        continue;
                    }
                    None => break, // unterminated comment swallows the rest
                }
            }
            if input[pos..].len() >= 2 && (input.as_bytes()[pos + 1] == b'!') {
                // Doctype or other declaration: skip to '>'
                match input[pos..].find('>') {
                    Some(end) => {
                        pos += end + 1;
                        continue;
                    }
                    None => break,
                }
            }
            if let Some(end) = input[pos..].find('>') {
                let inner = &input[pos + 1..pos + end];
                pos += end + 1;
                if let Some(name) = inner.strip_prefix('/') {
                    close_tag(&mut stack, name.trim());
                } else {
                    open_tag(&mut stack, &mut names, inner);
                }
                continue;
            }
            // A stray '<' with no closing '>' — treat the rest as text.
            push_text(&mut stack, &input[pos..]);
            break;
        }
        let next_lt = input[pos..]
            .find('<')
            .map(|i| pos + i)
            .unwrap_or(input.len());
        push_text(&mut stack, &input[pos..next_lt]);
        pos = next_lt;
    }

    // Close anything left open.
    while stack.len() > 1 {
        let (tag, attrs, children) = stack.pop().expect("len > 1");
        let node = Node::Element {
            tag,
            attrs,
            children,
        };
        stack.last_mut().expect("sentinel").2.push(node);
    }
    Ok(stack.pop().expect("sentinel").2)
}

fn push_text(stack: &mut [Frame], raw: &str) {
    if raw.is_empty() {
        return;
    }
    let frame = stack.last_mut().expect("stack non-empty");
    // Merge adjacent text runs so parsing is a normalization fixpoint
    // (render → parse yields the same tree again).
    if let Some(Node::Text(prev)) = frame.2.last_mut() {
        unescape_into(prev, raw);
    } else {
        frame.2.push(Node::Text(unescape(raw).into_owned()));
    }
}

fn open_tag(stack: &mut Vec<Frame>, names: &mut AtomInterner, inner: &str) {
    let inner = inner.trim();
    let self_closing = inner.ends_with('/');
    let inner = inner.trim_end_matches('/').trim();
    let (name, rest) = match inner.find(char::is_whitespace) {
        Some(i) => (&inner[..i], &inner[i..]),
        None => (inner, ""),
    };
    if name.is_empty() {
        return; // "<>" — drop it
    }
    let tag = names.atom(name);
    let attrs = parse_attrs(names, rest);
    if self_closing || VOID_TAGS.contains(&tag.as_str()) {
        let node = Node::Element {
            tag,
            attrs,
            children: Vec::new(),
        };
        stack.last_mut().expect("stack non-empty").2.push(node);
    } else {
        stack.push((tag, attrs, Vec::new()));
    }
}

fn close_tag(stack: &mut Vec<Frame>, name: &str) {
    // Stored tags are lowercase, so a case-insensitive compare against the
    // raw close name avoids allocating a lowercased copy.
    let Some(open_idx) = stack
        .iter()
        .rposition(|(tag, _, _)| tag.eq_ignore_ascii_case(name))
    else {
        return; // unmatched close: ignore
    };
    if open_idx == 0 {
        return;
    }
    // Implicitly close anything opened after it (mis-nesting tolerance).
    while stack.len() > open_idx {
        let (tag, attrs, children) = stack.pop().expect("len > open_idx");
        let node = Node::Element {
            tag,
            attrs,
            children,
        };
        stack.last_mut().expect("parent").2.push(node);
    }
}

fn parse_attrs(names: &mut AtomInterner, rest: &str) -> BTreeMap<Atom, String> {
    let mut attrs = BTreeMap::new();
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        // Attribute name.
        let name_start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'=' {
            i += 1;
        }
        let name = names.atom(&rest[name_start..i]);
        if name.is_empty() {
            i += 1;
            continue;
        }
        // Skip whitespace before '='.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'=' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                let quote = bytes[i];
                i += 1;
                let val_start = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                attrs.insert(name, unescape(&rest[val_start..i]).into_owned());
                i += 1; // past the closing quote
            } else {
                let val_start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                attrs.insert(name, unescape(&rest[val_start..i]).into_owned());
            }
        } else {
            // Valueless attribute (e.g. `disabled`).
            attrs.insert(name, String::new());
        }
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::el;
    use crate::render::{render_document, render_to_string};

    #[test]
    fn parses_simple_page() {
        let doc = parse_document(
            r#"<!DOCTYPE html><html><body><p id="x" class="a b">hi <b>there</b></p></body></html>"#,
        )
        .unwrap();
        assert_eq!(doc.root.tag(), Some("html"));
        let p = doc
            .elements()
            .into_iter()
            .find(|e| e.tag() == Some("p"))
            .unwrap();
        assert_eq!(p.id(), Some("x"));
        assert_eq!(p.classes(), vec!["a", "b"]);
        assert_eq!(p.text_content(), "hi there");
    }

    #[test]
    fn roundtrip_build_render_parse() {
        let original = Document::new(
            el("html")
                .child(el("head").child(el("title").text("T & Co")))
                .child(
                    el("body").child(
                        el("div")
                            .id("main")
                            .class("grid")
                            .child(el("a").attr("href", "/bot/1?x=1&y=2").text("Bot <One>"))
                            .child(el("br"))
                            .child(el("span").text("end")),
                    ),
                )
                .build(),
        );
        let html = render_document(&original);
        let parsed = parse_document(&html).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn tolerates_unmatched_close() {
        let doc = parse_document("<div><p>text</p></section></div>").unwrap();
        assert_eq!(doc.root.tag(), Some("div"));
        assert_eq!(doc.root.text_content(), "text");
    }

    #[test]
    fn closes_unclosed_elements_at_eof() {
        let doc = parse_document("<div><p>never closed").unwrap();
        assert_eq!(doc.root.tag(), Some("div"));
        assert_eq!(doc.root.children()[0].tag(), Some("p"));
        assert_eq!(doc.root.text_content(), "never closed");
    }

    #[test]
    fn misnesting_closes_inner_first() {
        // <b> is implicitly closed when </div> arrives
        let doc = parse_document("<div><b>bold</div>").unwrap();
        assert_eq!(doc.root.tag(), Some("div"));
        assert_eq!(doc.root.children()[0].tag(), Some("b"));
    }

    #[test]
    fn multiple_roots_get_synthetic_html() {
        let doc = parse_document("<p>a</p><p>b</p>").unwrap();
        assert_eq!(doc.root.tag(), Some("html"));
        assert_eq!(doc.root.children().len(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let doc = parse_document("<div><!-- hidden --><span>visible</span></div>").unwrap();
        assert_eq!(doc.root.text_content(), "visible");
        assert_eq!(doc.root.element_count(), 2);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_document("").is_err());
        assert!(parse_document("   \n  ").is_err());
        assert!(parse_document("just text").is_err());
    }

    #[test]
    fn attribute_forms() {
        let doc =
            parse_document(r#"<input type="text" value='single' disabled data-x=raw>"#).unwrap();
        let input = doc.root.clone();
        assert_eq!(input.attr("type"), Some("text"));
        assert_eq!(input.attr("value"), Some("single"));
        assert_eq!(input.attr("disabled"), Some(""));
        assert_eq!(input.attr("data-x"), Some("raw"));
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse_document("<div><widget/><span>x</span></div>").unwrap();
        assert_eq!(doc.root.children().len(), 2);
        assert_eq!(doc.root.children()[0].tag(), Some("widget"));
    }

    #[test]
    fn entities_unescape_in_text_and_attrs() {
        let doc =
            parse_document(r#"<a title="x &quot;y&quot;">1 &lt; 2 &amp; 3 &gt; 2</a>"#).unwrap();
        assert_eq!(doc.root.attr("title"), Some("x \"y\""));
        assert_eq!(doc.root.text_content(), "1 < 2 & 3 > 2");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse_document("<div><br><span>after</span></div>").unwrap();
        // <span> must be a sibling of <br>, not its child
        assert_eq!(doc.root.children().len(), 2);
        assert_eq!(
            render_to_string(&doc.root),
            "<div><br><span>after</span></div>"
        );
    }
}
