//! The copy-free kernels against the plain bodies they replaced.
//!
//! Each `reference_*` function below is the earlier, allocation-heavy
//! implementation, kept as an oracle: the rewritten escape,
//! unescape, class test, text flattening and locator engine must agree
//! with it on inputs dense in entities, markup characters and whitespace.

use crate::build::el;
use crate::locate::{parse_css, CssStep, Locator};
use crate::node::{Document, Node};
use crate::parse::parse_document;
use crate::render::{escape_attr, escape_text, render_document, unescape};
use proptest::prelude::*;

fn reference_escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
    out
}

fn reference_escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

fn reference_unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

fn reference_has_class(node: &Node, name: &str) -> bool {
    let classes: Vec<&str> = node
        .attr("class")
        .map(|c| c.split_whitespace().collect())
        .unwrap_or_default();
    classes.contains(&name)
}

fn reference_text_content(node: &Node) -> String {
    fn collect_text(node: &Node, out: &mut String) {
        match node {
            Node::Text(t) => {
                out.push(' ');
                out.push_str(t);
            }
            Node::Element { children, .. } => {
                for c in children {
                    collect_text(c, out);
                }
            }
        }
    }
    let mut out = String::new();
    collect_text(node, &mut out);
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The left-to-right CSS-lite engine: every match, in the order its
/// recursive search meets them, duplicates dropped.
fn reference_select<'a>(root: &'a Node, steps: &[CssStep]) -> Vec<&'a Node> {
    fn select<'a>(node: &'a Node, steps: &[CssStep], out: &mut Vec<&'a Node>) {
        match_from(node, steps, out);
        for child in node.children() {
            select(child, steps, out);
        }
    }
    fn match_from<'a>(node: &'a Node, steps: &[CssStep], out: &mut Vec<&'a Node>) {
        let Some((first, rest)) = steps.split_first() else {
            return;
        };
        if !first.matches(node) {
            return;
        }
        if rest.is_empty() {
            if !out.iter().any(|n| std::ptr::eq(*n, node)) {
                out.push(node);
            }
            return;
        }
        for child in node.children() {
            if first.child_combinator {
                match_from(child, rest, out);
            } else {
                select(child, rest, out);
            }
        }
    }
    let mut out = Vec::new();
    select(root, steps, &mut out);
    out
}

/// Strings dense in what escaping and decoding must get right: bare and
/// doubly-escaped entities, markup characters, whitespace, letters.
const FRAGMENTS: &[&str] = &[
    "&",
    "<",
    ">",
    "\"",
    "'",
    ";",
    "&amp;",
    "&lt;",
    "&gt;",
    "&quot;",
    "&amp;lt;",
    "&amp;amp;",
    "&l",
    "amp;",
    " ",
    "  ",
    "\t",
    "\n",
    "a",
    "b",
    "Q",
    "lt",
    "c1",
    "c2",
];

fn tricky() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..14)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

const TAGS: &[&str] = &["div", "p", "a", "span", "section", "br"];
const CLASSES: &[&str] = &["c1", "c2", "c3"];
const IDS: &[&str] = &["i1", "i2"];

/// Random pages over a small vocabulary, so locators hit often, with
/// entity-dense text runs and `title` values.
fn arb_page() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        tricky().prop_map(Node::text),
        (0..TAGS.len()).prop_map(|t| el(TAGS[t]).build()),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        (
            (0..TAGS.len(), 0..8usize, 0..IDS.len() + 1, 0..3usize),
            tricky(),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|((tag, class_mask, id, data_x), title, children)| {
                let mut b = el(TAGS[tag]).attr("title", &title);
                for (bit, class) in CLASSES.iter().enumerate() {
                    if class_mask & (1 << bit) != 0 {
                        b = b.class(class);
                    }
                }
                if let Some(id) = IDS.get(id) {
                    b = b.id(id);
                }
                if data_x < 2 {
                    b = b.attr("data-x", &data_x.to_string());
                }
                for c in children {
                    b = b.node(c);
                }
                b.build()
            })
    })
    .prop_map(|body| el("html").child(el("body").node(body)).build())
}

/// One locator of every kind, over the page vocabulary.
fn locators() -> Vec<Locator> {
    let mut all = vec![
        Locator::LinkText(String::new()),
        Locator::LinkText("a".into()),
        Locator::PartialLinkText("a".into()),
        Locator::Attr {
            name: "data-x".into(),
            value: "1".into(),
        },
    ];
    all.extend(IDS.iter().map(|id| Locator::id(id)));
    all.extend(CLASSES.iter().map(|class| Locator::class(class)));
    all.extend(TAGS.iter().map(|tag| Locator::tag(tag)));
    all.extend(
        [
            "div a",
            "div > p",
            "p > a.c2",
            "div.c1 span",
            "section div > a",
            "div > div > span.c3",
            "a[data-x=1]",
            "span[data-x]",
            "#i1 .c2",
            "body > *",
            "div p a",
        ]
        .into_iter()
        .map(Locator::css),
    );
    all
}

fn address(node: &Node) -> *const Node {
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escape_and_unescape_match_their_references(s in tricky()) {
        prop_assert_eq!(escape_text(&s), reference_escape_text(&s));
        prop_assert_eq!(escape_attr(&s), reference_escape_attr(&s));
        prop_assert_eq!(unescape(&s).into_owned(), reference_unescape(&s));
        prop_assert_eq!(unescape(&escape_attr(&s)).into_owned(), s.clone());
    }

    #[test]
    fn has_class_matches_its_reference(value in tricky(), name in tricky()) {
        let node = el("div").attr("class", &value).build();
        for name in [name.as_str(), "", " ", "c1", "c2", "a", "c1 c2"] {
            prop_assert_eq!(node.has_class(name), reference_has_class(&node, name));
        }
    }

    #[test]
    fn render_parse_is_a_fixpoint_and_text_matches_its_reference(page in arb_page()) {
        let html = render_document(&Document::new(page.clone()));
        let parsed = parse_document(&html).expect("rendered page parses");
        let rendered = render_document(&parsed);
        prop_assert_eq!(&rendered, &html);
        prop_assert_eq!(parse_document(&rendered).expect("parses"), parsed.clone());
        for tree in [&page, &parsed.root] {
            tree.walk_elements(&mut |n| {
                assert_eq!(n.text_content(), reference_text_content(n));
            });
        }
    }

    #[test]
    fn find_is_the_first_of_find_all_in_document_order(page in arb_page()) {
        let doc = Document::new(page);
        let order: Vec<*const Node> = doc.elements().into_iter().map(address).collect();
        for locator in locators() {
            let all = locator.find_all(&doc).expect("valid locator");
            let first = locator.find(&doc).ok().map(address);
            prop_assert_eq!(first, all.first().copied().map(address), "{}", locator);
            let positions: Vec<usize> = all
                .iter()
                .map(|n| order.iter().position(|p| *p == address(n)).expect("in doc"))
                .collect();
            prop_assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "{}: matches out of document order or repeated",
                locator
            );
            if let Locator::Css(selector) = &locator {
                let steps = parse_css(selector).expect("valid selector");
                let mut expected: Vec<*const Node> =
                    reference_select(&doc.root, &steps).into_iter().map(address).collect();
                expected.sort_by_key(|p| order.iter().position(|q| q == p));
                let got: Vec<*const Node> = all.into_iter().map(address).collect();
                prop_assert_eq!(got, expected, "{}", locator);
            }
        }
    }
}
