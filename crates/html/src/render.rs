//! Serialization: the tree → HTML text that travels over the fabric.
//!
//! Rendering writes straight into one output buffer: text runs and
//! attribute values are escaped in place, copying the stretches between
//! special characters as whole slices, so a page costs one growing
//! `String` and no per-node temporaries. The parser's inverse,
//! [`unescape`], borrows its input when there is nothing to decode and
//! otherwise decodes in a single left-to-right pass.

use crate::node::{Document, Node};
use std::borrow::Cow;

/// Tags serialized without a closing tag (HTML "void elements").
const VOID_TAGS: &[&str] = &["br", "hr", "img", "input", "link", "meta"];

/// The entities this crate emits and decodes, with their characters.
const ENTITIES: [(&str, char); 4] = [
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
];

/// Render a document to an HTML string with a doctype line.
pub fn render_document(doc: &Document) -> String {
    let mut out = String::from("<!DOCTYPE html>");
    render_node(&doc.root, &mut out);
    out
}

/// Render a single node (and subtree) to HTML.
pub fn render_node(node: &Node, out: &mut String) {
    match node {
        Node::Text(t) => escape_into(out, t, false),
        Node::Element {
            tag,
            attrs,
            children,
        } => {
            out.push('<');
            out.push_str(tag);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                escape_into(out, v, true);
                out.push('"');
            }
            out.push('>');
            if VOID_TAGS.contains(&tag.as_str()) {
                return;
            }
            for c in children {
                render_node(c, out);
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
    }
}

/// Render a node to a fresh string.
pub fn render_to_string(node: &Node) -> String {
    let mut s = String::new();
    render_node(node, &mut s);
    s
}

/// Append `s` to `out`, replacing each special byte with its entity. The
/// special characters are all ASCII, so every split point is a char
/// boundary.
fn escape_into(out: &mut String, s: &str, quotes: bool) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quotes => "&quot;",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        out.push_str(entity);
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Escape text content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s, false);
    out
}

/// Escape attribute values (quotes too).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s, true);
    out
}

/// Append `s` to `out` with the entities this crate emits decoded, in one
/// left-to-right pass. Any other `&` passes through unchanged.
pub(crate) fn unescape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let (ch, len) = ENTITIES
            .iter()
            .find(|(entity, _)| tail.starts_with(entity))
            .map_or(('&', 1), |&(entity, ch)| (ch, entity.len()));
        out.push(ch);
        rest = &tail[len..];
    }
    out.push_str(rest);
}

/// Unescape the entities this crate emits (used by the parser). Borrows
/// `s` unchanged when it contains no `&`.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(&mut out, s);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::el;

    #[test]
    fn renders_simple_page() {
        let doc = Document::new(
            el("html")
                .child(el("body").child(el("p").id("x").text("hi")))
                .build(),
        );
        assert_eq!(
            render_document(&doc),
            "<!DOCTYPE html><html><body><p id=\"x\">hi</p></body></html>"
        );
    }

    #[test]
    fn escapes_text_and_attrs() {
        let n = el("a")
            .attr("title", "a \"b\" <c>")
            .text("x < y & z")
            .build();
        let html = render_to_string(&n);
        assert!(html.contains("a &quot;b&quot; &lt;c&gt;"));
        assert!(html.contains("x &lt; y &amp; z"));
    }

    #[test]
    fn void_tags_have_no_close() {
        let n = el("div")
            .child(el("br"))
            .child(el("img").attr("src", "/x.png"))
            .build();
        let html = render_to_string(&n);
        assert!(html.contains("<br>"));
        assert!(!html.contains("</br>"));
        assert!(!html.contains("</img>"));
    }

    #[test]
    fn unescape_inverts_escape() {
        let original = "a<b>&\"quoted\" & more";
        assert_eq!(unescape(&escape_attr(original)), original);
        let text_only = "1 < 2 && 3 > 2";
        assert_eq!(unescape(&escape_text(text_only)), text_only);
    }
}
