//! Every tag and attribute name the listing site and the bot websites
//! emit resolves to htmlsim's static name table, so neither building nor
//! parsing their pages allocates a name.

use botlist::website::PolicyHosting;
use botlist::{BotListSite, BotListing, BotWebsite, SiteConfig, LIST_HOST};
use htmlsim::{parse_document, Node};
use netsim::client::{ClientConfig, HttpClient};
use netsim::http::Url;
use netsim::Network;
use policy::PrivacyPolicy;

const SITE_HOST: &str = "bot-1.site.sim";

/// A listing with every optional field set, so the detail layouts emit
/// every element they can.
fn full_listing(id: u64) -> BotListing {
    BotListing {
        tags: vec!["moderation".into(), "music".into()],
        description: "Keeps the peace & plays <tunes>.".into(),
        guild_count: 40 + id,
        website: Some(format!("https://{SITE_HOST}/")),
        github: Some(format!("https://github.sim/dev/bot-{id}")),
        developers: vec![format!("dev-{id}"), "helper".into()],
        commands: vec!["!ban".into(), "!play".into()],
        ..BotListing::minimal(
            id,
            &format!("Bot{id}"),
            &format!("https://discord.sim/oauth2/authorize?client_id={id}&scope=bot"),
            1000 - id,
        )
    }
}

/// Names in `node`'s subtree that the static table does not cover.
fn unknown_names(node: &Node, out: &mut Vec<String>) {
    if let Node::Element {
        tag,
        attrs,
        children,
    } = node
    {
        if !tag.is_static() {
            out.push(format!("<{tag}>"));
        }
        out.extend(
            attrs
                .keys()
                .filter(|key| !key.is_static())
                .map(|key| format!("{tag}[{key}]")),
        );
        for child in children {
            unknown_names(child, out);
        }
    }
}

#[test]
fn every_emitted_name_is_in_the_static_table() {
    let net = Network::new(3);
    // Page size 1: pages 0, 1 and 2 are the three list layouts.
    let site = BotListSite::new(
        (1..=3).map(full_listing).collect(),
        SiteConfig {
            page_size: 1,
            ..SiteConfig::open()
        },
    );
    site.mount(&net);
    let policy = PrivacyPolicy::new(
        "Bot1 Privacy Policy",
        vec![
            "We collect your user id.".into(),
            "We store messages.".into(),
        ],
        true,
    );
    BotWebsite::new("Bot1", PolicyHosting::Linked(policy)).mount(&net, SITE_HOST);
    let mut client = HttpClient::new(net, ClientConfig::impolite("atoms"));

    let mut pages = Vec::new();
    for page in 0..3 {
        pages.push(Url::https(LIST_HOST, "/list").with_query("page", &page.to_string()));
    }
    // Bot ids 1 and 2 render the primary and the alternate detail layout.
    pages.push(Url::https(LIST_HOST, "/bot/1"));
    pages.push(Url::https(LIST_HOST, "/bot/2"));
    pages.push(Url::https(LIST_HOST, "/captcha/challenge"));
    pages.push(Url::https(SITE_HOST, "/"));
    pages.push(Url::https(SITE_HOST, "/privacy"));

    for url in pages {
        let resp = client.get(url.clone()).expect("open site serves");
        assert!(resp.status.is_success(), "{url}: {}", resp.status);
        let doc = parse_document(&resp.text()).expect("site emits valid html");
        let mut unknown = Vec::new();
        unknown_names(&doc.root, &mut unknown);
        assert!(
            unknown.is_empty(),
            "{url}: names missing from the static table: {unknown:?}"
        );
    }
}
