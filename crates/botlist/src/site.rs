//! The listing site service.
//!
//! Serves the paginated "top chatbot" list and per-bot detail pages over
//! the `netsim` fabric, defended by a rate limiter, captcha interstitials,
//! and an email-verification wall — the §3 anti-scraping gauntlet.

use crate::captcha::CaptchaBank;
use crate::listing::BotListing;
use htmlsim::build::{el, ElementBuilder};
use htmlsim::render::render_document;
use htmlsim::Document;
use netsim::clock::SimInstant;
use netsim::http::{Method, Request, Response, Status};
use netsim::ratelimit::TokenBucket;
use netsim::{Network, Service, ServiceCtx};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Canonical host of the listing site.
pub const LIST_HOST: &str = "top.gg.sim";

/// Site behaviour knobs.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Bots per list page.
    pub page_size: usize,
    /// Page views granted between captcha interstitials (None = no captchas).
    pub captcha_every: Option<u64>,
    /// Per-requester rate limit: (burst, sustained req/s). None = unlimited.
    pub rate_limit: Option<(u32, f64)>,
    /// List pages beyond this index require email verification.
    pub email_wall_after_page: Option<usize>,
    /// Fault injection: the detail route answers 304 to *any*
    /// `if-none-match`, even when the content drifted underneath — a
    /// misbehaving origin whose validators cannot be trusted.
    pub stale_validators: bool,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            page_size: 25,
            captcha_every: Some(40),
            rate_limit: Some((10, 5.0)),
            email_wall_after_page: Some(200),
            stale_validators: false,
        }
    }
}

impl SiteConfig {
    /// A defenseless configuration (unit tests, ablations).
    pub fn open() -> SiteConfig {
        SiteConfig {
            page_size: 25,
            captcha_every: None,
            rate_limit: None,
            email_wall_after_page: None,
            stale_validators: false,
        }
    }
}

/// FNV-1a over the content fields that feed a render, with a separator
/// between parts. Computed *before* rendering, so a validator match skips
/// the render (the expensive half of serving a page) entirely.
pub(crate) fn content_etag(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("v1-{h:016x}")
}

struct ClientState {
    bucket: Option<TokenBucket>,
    credit: u64,
    email_verified: bool,
}

struct SiteInner {
    listings: Vec<BotListing>,
    by_id: BTreeMap<u64, usize>,
    config: SiteConfig,
    captcha: CaptchaBank,
    clients: BTreeMap<String, ClientState>,
    /// Consumed pass tokens (single-use).
    used_passes: BTreeMap<String, bool>,
    /// The epoch this mounted world serves (0 = frozen snapshot).
    change_epoch: u32,
    /// Crawl-visible change ledger: epoch step → listing ids whose crawl
    /// bytes changed in that step. Feeds the `/changed` endpoint.
    change_log: BTreeMap<u32, Vec<u64>>,
}

/// The listing site. Clone-and-mount.
#[derive(Clone)]
pub struct BotListSite {
    inner: Arc<Mutex<SiteInner>>,
}

impl BotListSite {
    /// Build the site over a set of listings (sorted by votes, descending —
    /// the "top chatbot" order).
    pub fn new(mut listings: Vec<BotListing>, config: SiteConfig) -> BotListSite {
        listings.sort_by(|a, b| b.vote_count.cmp(&a.vote_count).then(a.id.cmp(&b.id)));
        let by_id = listings
            .iter()
            .enumerate()
            .map(|(i, l)| (l.id, i))
            .collect();
        BotListSite {
            inner: Arc::new(Mutex::new(SiteInner {
                listings,
                by_id,
                config,
                captcha: CaptchaBank::new(),
                clients: BTreeMap::new(),
                used_passes: BTreeMap::new(),
                change_epoch: 0,
                change_log: BTreeMap::new(),
            })),
        }
    }

    /// Mount at [`LIST_HOST`].
    pub fn mount(&self, net: &Network) {
        self.mount_at(net, LIST_HOST);
    }

    /// Mount at an arbitrary host — each platform's directory lives on its
    /// own domain (`top.gg.sim` for Discord, `tdirectory.sim` for the
    /// Telegram substrate), all running this same site machinery.
    pub fn mount_at(&self, net: &Network, host: &str) {
        net.mount(host, self.clone());
    }

    /// Total number of list pages.
    pub fn total_pages(&self) -> usize {
        let inner = self.inner.lock();
        inner.listings.len().div_ceil(inner.config.page_size).max(1)
    }

    /// Number of listings.
    pub fn listing_count(&self) -> usize {
        self.inner.lock().listings.len()
    }

    /// Install the crawl-visible change ledger served by `/changed`:
    /// `log[e]` holds the listing ids whose crawl bytes changed in epoch
    /// step `e`, and `epoch` is the epoch this mounted world serves. A
    /// site without a ledger reports every epoch as unchanged — exactly
    /// right for the frozen epoch-0 world.
    pub fn set_change_log(&self, epoch: u32, log: BTreeMap<u32, Vec<u64>>) {
        let mut inner = self.inner.lock();
        inner.change_epoch = epoch;
        inner.change_log = log;
    }

    fn list_etag(inner: &SiteInner, page: usize) -> String {
        let start = page.saturating_mul(inner.config.page_size);
        let total_pages = inner.listings.len().div_ceil(inner.config.page_size).max(1);
        let mut parts: Vec<Vec<u8>> = vec![
            page.to_le_bytes().to_vec(),
            total_pages.to_le_bytes().to_vec(),
        ];
        for l in inner
            .listings
            .iter()
            .skip(start)
            .take(inner.config.page_size)
        {
            parts.push(l.id.to_le_bytes().to_vec());
            parts.push(l.name.clone().into_bytes());
            parts.push(l.vote_count.to_le_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        content_etag(&refs)
    }

    fn detail_etag(listing: &BotListing) -> String {
        // Every listing field feeds the detail render, so the debug
        // projection (deterministic, field-complete) is the validator.
        content_etag(&[format!("{listing:?}").as_bytes()])
    }

    fn render_list_page(inner: &SiteInner, page: usize) -> String {
        let start = page.saturating_mul(inner.config.page_size);
        let slice: Vec<&BotListing> = inner
            .listings
            .iter()
            .skip(start)
            .take(inner.config.page_size)
            .collect();
        let total_pages = inner.listings.len().div_ceil(inner.config.page_size).max(1);
        // Three page-structure variants — "some of the repositories have
        // varying page structures" (§3).
        let variant = page % 3;
        let body: ElementBuilder = match variant {
            0 => el("div").id("bot-list").children(slice.iter().map(|l| {
                el("div")
                    .class("bot-card")
                    .attr("data-bot-id", &l.id.to_string())
                    .child(
                        el("a")
                            .class("bot-link")
                            .attr("href", &format!("/bot/{}", l.id))
                            .text(l.name.clone()),
                    )
                    .child(el("span").class("votes").text(l.vote_count.to_string()))
            })),
            1 => el("table")
                .id("bot-table")
                .child(el("tbody").children(slice.iter().map(|l| {
                    el("tr")
                        .class("bot-row")
                        .child(
                            el("td").child(
                                el("a")
                                    .class("details")
                                    .attr("href", &format!("/bot/{}", l.id))
                                    .text(l.name.clone()),
                            ),
                        )
                        .child(el("td").class("votes").text(l.vote_count.to_string()))
                }))),
            _ => el("ul").id("entries").children(slice.iter().map(|l| {
                el("li").class("entry").child(
                    el("a")
                        .attr("data-kind", "bot")
                        .attr("href", &format!("/bot/{}", l.id))
                        .text(l.name.clone()),
                )
            })),
        };
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text(format!("Top chatbots — page {page}"))))
                .child(
                    el("body")
                        .child(el("span").id("total-pages").text(total_pages.to_string()))
                        .child(body),
                )
                .build(),
        );
        render_document(&doc)
    }

    /// The community rail every detail page drags along: reviews, a vote
    /// sparkline, and a related-bots strip. Real listing sites bury the
    /// handful of fields an auditor extracts (§3) under exactly this kind
    /// of markup, and the crawler never parses any of it — which is what
    /// a conditional fetch exploits: a 304 skips bytes the cold path must
    /// download and tokenize. Content is derived from the listing fields
    /// alone, so it drifts if and only if the listing drifts and the
    /// page's validator stays honest.
    fn render_community_rail(listing: &BotListing) -> ElementBuilder {
        const ADJ: [&str; 8] = [
            "reliable",
            "laggy",
            "helpful",
            "spammy",
            "clean",
            "clunky",
            "snappy",
            "essential",
        ];
        const VERB: [&str; 8] = [
            "moderates",
            "responds",
            "crashes",
            "integrates",
            "logs",
            "pings",
            "automates",
            "translates",
        ];
        let mut reviews = el("div").class("reviews");
        let n_reviews = 8 + (listing.id % 5) as usize;
        for i in 0..n_reviews {
            let r = netsim::splitmix(listing.id, 0x9e37 + i as u64);
            let stars = 1 + (r % 5);
            let body = format!(
                "{name} is {a0} and {verb} {a1} guilds without fuss; after {days} days \
                 running {cmd} across {guilds} servers it still feels {a2}. {tail}",
                name = listing.name,
                a0 = ADJ[(r >> 3) as usize % ADJ.len()],
                verb = VERB[(r >> 7) as usize % VERB.len()],
                a1 = ADJ[(r >> 11) as usize % ADJ.len()],
                days = 3 + (r >> 15) % 900,
                cmd = listing
                    .commands
                    .get((r >> 5) as usize % listing.commands.len().max(1))
                    .map(String::as_str)
                    .unwrap_or("!help"),
                guilds = 1 + (r >> 23) % 40,
                a2 = ADJ[(r >> 27) as usize % ADJ.len()],
                tail = if stars >= 4 {
                    "Would recommend to any server owner looking for an upgrade."
                } else {
                    "Support never answered my ticket, so weigh that before installing."
                },
            );
            reviews = reviews.child(
                el("article")
                    .class("review")
                    .attr("data-stars", &stars.to_string())
                    .child(
                        el("span")
                            .class("reviewer")
                            .text(format!("user{}", r % 100_000)),
                    )
                    .child(el("p").class("review-body").text(body)),
            );
        }
        let votes = el("ul").class("vote-history").children((0..30u64).map(|w| {
            let v = netsim::splitmix(listing.id ^ listing.vote_count, w);
            el("li")
                .attr("data-week", &w.to_string())
                .text((listing.vote_count.saturating_sub(v % 97)).to_string())
        }));
        let related = el("ul").class("related-bots").children((0..12u64).map(|k| {
            let r = netsim::splitmix(listing.id, 0xbeef + k);
            el("li").child(
                el("a")
                    .attr("href", &format!("/bot/{}", 1 + r % 4096))
                    .text(format!(
                        "{}Bot{}",
                        ADJ[(r >> 9) as usize % ADJ.len()],
                        r % 997
                    )),
            )
        }));
        el("aside")
            .class("community-rail")
            .child(reviews)
            .child(votes)
            .child(related)
    }

    fn render_detail_page(listing: &BotListing) -> String {
        // Detail pages also come in two structure variants (§3: "some of
        // the repositories have varying page structures"). Variant choice
        // is deterministic per bot so re-fetches are stable.
        if listing.id % 3 == 2 {
            return Self::render_detail_page_alt(listing);
        }
        let mut bot = el("div")
            .id("bot")
            .attr("data-bot-id", &listing.id.to_string())
            .child(el("h1").id("bot-name").text(listing.name.clone()))
            .child(
                el("a")
                    .id("invite")
                    .attr("href", &listing.invite_link)
                    .text("Invite"),
            )
            .child(
                el("span")
                    .id("guild-count")
                    .text(listing.guild_count.to_string()),
            )
            .child(
                el("span")
                    .id("vote-count")
                    .text(listing.vote_count.to_string()),
            )
            .child(el("p").id("description").text(listing.description.clone()))
            .child(
                el("ul").id("tags").children(
                    listing
                        .tags
                        .iter()
                        .map(|t| el("li").class("tag").text(t.clone())),
                ),
            )
            .child(
                el("ul").id("devs").children(
                    listing
                        .developers
                        .iter()
                        .map(|d| el("li").class("dev").text(d.clone())),
                ),
            )
            .child(
                el("ul").id("commands").children(
                    listing
                        .commands
                        .iter()
                        .map(|c| el("li").class("command").text(c.clone())),
                ),
            );
        if let Some(site) = &listing.website {
            bot = bot.child(el("a").class("website").attr("href", site).text("Website"));
        }
        if let Some(gh) = &listing.github {
            bot = bot.child(el("a").class("github").attr("href", gh).text("GitHub"));
        }
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text(listing.name.clone())))
                .child(
                    el("body")
                        .child(bot)
                        .child(Self::render_community_rail(listing)),
                )
                .build(),
        );
        render_document(&doc)
    }

    /// The alternate detail layout: a profile card with data attributes and
    /// different ids/classes — a scraper keyed only to the primary layout
    /// raises `NoSuchElement` here.
    fn render_detail_page_alt(listing: &BotListing) -> String {
        let mut card = el("section")
            .class("app-profile")
            .attr("data-app-id", &listing.id.to_string())
            .attr("data-guilds", &listing.guild_count.to_string())
            .attr("data-votes", &listing.vote_count.to_string())
            .child(el("h2").class("app-title").text(listing.name.clone()))
            .child(
                el("div").class("actions").child(
                    el("a")
                        .class("install-button")
                        .attr("href", &listing.invite_link)
                        .text("Add to server"),
                ),
            )
            .child(el("div").class("about").text(listing.description.clone()))
            .child(
                el("div").class("badges").children(
                    listing
                        .tags
                        .iter()
                        .map(|t| el("span").class("badge").text(t.clone())),
                ),
            )
            .child(
                el("div").class("made-by").children(
                    listing
                        .developers
                        .iter()
                        .map(|d| el("span").class("maker").text(d.clone())),
                ),
            )
            .child(
                el("div").class("command-list").children(
                    listing
                        .commands
                        .iter()
                        .map(|c| el("code").class("cmd").text(c.clone())),
                ),
            );
        let mut links = el("nav").class("external-links");
        if let Some(site) = &listing.website {
            links = links.child(
                el("a")
                    .attr("rel", "website")
                    .attr("href", site)
                    .text("Website"),
            );
        }
        if let Some(gh) = &listing.github {
            links = links.child(
                el("a")
                    .attr("rel", "source")
                    .attr("href", gh)
                    .text("Source"),
            );
        }
        card = card.child(links);
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text(listing.name.clone())))
                .child(
                    el("body")
                        .child(card)
                        .child(Self::render_community_rail(listing)),
                )
                .build(),
        );
        render_document(&doc)
    }

    fn render_captcha_page(challenge: &crate::captcha::Challenge) -> String {
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text("Are you human?")))
                .child(
                    el("body").child(
                        el("div")
                            .id("captcha")
                            .attr("data-challenge-id", &challenge.id)
                            .child(el("p").class("question").text(challenge.question.clone())),
                    ),
                )
                .build(),
        );
        render_document(&doc)
    }
}

impl Service for BotListSite {
    fn handle(&mut self, req: &Request, ctx: &mut ServiceCtx<'_>) -> Response {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let requester = ctx.requester.to_string();
        let config = inner.config.clone();

        let state = inner
            .clients
            .entry(requester.clone())
            .or_insert_with(|| ClientState {
                bucket: config
                    .rate_limit
                    .map(|(burst, rate)| TokenBucket::new(burst, rate, SimInstant::EPOCH)),
                credit: config.captcha_every.unwrap_or(u64::MAX),
                email_verified: false,
            });

        // 1. Rate limiting.
        if let Some(bucket) = &mut state.bucket {
            if let Err(wait) = bucket.try_acquire(ctx.now) {
                return Response::rate_limited(wait.as_millis());
            }
        }

        // Captcha plumbing endpoints are always reachable.
        match (req.method, req.url.path.as_str()) {
            (Method::Get, "/captcha/challenge") => {
                let ch = inner.captcha.issue(ctx.rng);
                return Response::ok(Self::render_captcha_page(&ch))
                    .with_header("content-type", "text/html");
            }
            (Method::Post, "/captcha/redeem") => {
                let body = String::from_utf8_lossy(&req.body).to_string();
                let mut id = None;
                let mut answer = None;
                for pair in body.split('&') {
                    match pair.split_once('=') {
                        Some(("id", v)) => id = Some(v.to_string()),
                        Some(("answer", v)) => answer = v.parse::<i64>().ok(),
                        _ => {}
                    }
                }
                return match (id, answer) {
                    (Some(id), Some(answer)) => match inner.captcha.redeem(&id, answer) {
                        Some(token) => Response::ok(token),
                        None => Response::status(Status::Forbidden),
                    },
                    _ => Response::status(Status::BadRequest),
                };
            }
            (Method::Post, "/verify-email") => {
                let state = inner.clients.get_mut(&requester).expect("created above");
                state.email_verified = true;
                return Response::ok("verified");
            }
            // Changed-since ledger: a lightweight API view (no captcha
            // spend) listing the bots whose crawl bytes changed after the
            // requested epoch, one `/bot/{id}` href per line, paginated.
            (Method::Get, "/changed") => {
                let since: u32 = req
                    .url
                    .query_param("since")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let page: usize = req
                    .url
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                let mut ids: Vec<u64> = inner
                    .change_log
                    .iter()
                    .filter(|(e, _)| **e > since)
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                let page_size = config.page_size;
                let total_pages = ids.len().div_ceil(page_size).max(1);
                let body = ids
                    .iter()
                    .skip(page.saturating_mul(page_size))
                    .take(page_size)
                    .map(|id| format!("/bot/{id}"))
                    .collect::<Vec<_>>()
                    .join("\n");
                return Response::ok(body)
                    .with_header("content-type", "text/plain")
                    .with_header("x-total-pages", &total_pages.to_string())
                    .with_header("x-changed-epoch", &inner.change_epoch.to_string());
            }
            _ => {}
        }

        // 2. Captcha interstitial: consume a pass token or spend credit.
        let state = inner.clients.get_mut(&requester).expect("created above");
        if let Some(pass) = req.url.query_param("captcha_pass") {
            if inner.captcha.is_valid_pass(pass) && !inner.used_passes.contains_key(pass) {
                inner.used_passes.insert(pass.to_string(), true);
                state.credit = config.captcha_every.unwrap_or(u64::MAX);
            }
        }
        if state.credit == 0 {
            let ch = inner.captcha.issue(ctx.rng);
            return Response {
                status: Status::Forbidden,
                ..Response::ok(Self::render_captcha_page(&ch))
            };
        }
        state.credit = state.credit.saturating_sub(1);
        let email_verified = state.email_verified;

        // 3. Content routes.
        let segments = req.url.segments();
        match segments.as_slice() {
            ["list"] | [] => {
                let page: usize = req
                    .url
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                if let Some(wall) = config.email_wall_after_page {
                    if page > wall && !email_verified {
                        return Response::status(Status::Unauthorized);
                    }
                }
                // Validator check runs after the defenses (a cached copy
                // does not excuse you from the gauntlet) but before the
                // render — the saving a 304 buys.
                let etag = Self::list_etag(inner, page);
                if req.header("if-none-match") == Some(etag.as_str()) {
                    return Response::not_modified(&etag);
                }
                Response::ok(Self::render_list_page(inner, page))
                    .with_header("content-type", "text/html")
                    .with_header("etag", &etag)
            }
            ["bot", id] => match id.parse::<u64>().ok().and_then(|id| inner.by_id.get(&id)) {
                Some(&idx) => {
                    let listing = &inner.listings[idx];
                    let etag = Self::detail_etag(listing);
                    if let Some(tag) = req.header("if-none-match") {
                        if config.stale_validators || tag == etag {
                            return Response::not_modified(&etag);
                        }
                    }
                    Response::ok(Self::render_detail_page(listing))
                        .with_header("content-type", "text/html")
                        .with_header("etag", &etag)
                }
                None => Response::status(Status::NotFound),
            },
            _ => Response::status(Status::NotFound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmlsim::{parse_document, Locator};
    use netsim::client::{ClientConfig, HttpClient};
    use netsim::http::Url;
    use netsim::NetError;

    fn listings(n: u64) -> Vec<BotListing> {
        (0..n)
            .map(|i| {
                BotListing::minimal(
                    i + 1,
                    &format!("Bot{}", i + 1),
                    &format!(
                        "https://discord.sim/oauth2/authorize?client_id={}&scope=bot&permissions=8",
                        i + 1
                    ),
                    1000 - i,
                )
            })
            .collect()
    }

    fn setup(config: SiteConfig, n: u64) -> (Network, BotListSite, HttpClient) {
        let net = Network::new(5);
        let site = BotListSite::new(listings(n), config);
        site.mount(&net);
        let client = HttpClient::new(net.clone(), ClientConfig::impolite("test"));
        (net, site, client)
    }

    #[test]
    fn list_page_serves_cards_sorted_by_votes() {
        let (_net, site, mut client) = setup(SiteConfig::open(), 60);
        assert_eq!(site.total_pages(), 3);
        let resp = client
            .get(Url::https(LIST_HOST, "/list").with_query("page", "0"))
            .unwrap();
        let doc = parse_document(&resp.text()).unwrap();
        let cards = Locator::class("bot-card").find_all(&doc).unwrap();
        assert_eq!(cards.len(), 25);
        // Highest votes first → Bot1.
        let first_link = Locator::class("bot-link").find(&doc).unwrap();
        assert_eq!(first_link.text_content(), "Bot1");
        let total = Locator::id("total-pages").find(&doc).unwrap();
        assert_eq!(total.text_content(), "3");
    }

    #[test]
    fn page_structure_varies_by_page() {
        let (_net, _site, mut client) = setup(SiteConfig::open(), 100);
        let page = |client: &mut HttpClient, n: usize| {
            let resp = client
                .get(Url::https(LIST_HOST, "/list").with_query("page", &n.to_string()))
                .unwrap();
            parse_document(&resp.text()).unwrap()
        };
        let p0 = page(&mut client, 0);
        assert!(Locator::id("bot-list").find(&p0).is_ok());
        let p1 = page(&mut client, 1);
        assert!(
            Locator::id("bot-list").find(&p1).is_err(),
            "variant 1 has no #bot-list"
        );
        assert!(Locator::id("bot-table").find(&p1).is_ok());
        let p2 = page(&mut client, 2);
        assert!(Locator::id("entries").find(&p2).is_ok());
    }

    #[test]
    fn detail_page_carries_all_attributes() {
        let (_net, _site, mut client) = setup(SiteConfig::open(), 5);
        let resp = client.get(Url::https(LIST_HOST, "/bot/3")).unwrap();
        let doc = parse_document(&resp.text()).unwrap();
        assert_eq!(
            Locator::id("bot-name").find(&doc).unwrap().text_content(),
            "Bot3"
        );
        let invite = Locator::id("invite").find(&doc).unwrap();
        assert!(invite.attr("href").unwrap().contains("client_id=3"));
        assert_eq!(
            Locator::id("vote-count").find(&doc).unwrap().text_content(),
            "998"
        );
        assert_eq!(
            Locator::class("dev").find(&doc).unwrap().text_content(),
            "dev-3"
        );
        // No website/github on minimal listings.
        assert!(Locator::class("website").find(&doc).is_err());
    }

    #[test]
    fn unknown_bot_is_404() {
        let (_net, _site, mut client) = setup(SiteConfig::open(), 5);
        let resp = client.get(Url::https(LIST_HOST, "/bot/999")).unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn rate_limit_fires_and_recovers() {
        let config = SiteConfig {
            rate_limit: Some((2, 1.0)),
            captcha_every: None,
            ..SiteConfig::open()
        };
        let (net, _site, mut client) = setup(config, 5);
        // Burst of 2 succeeds; third is throttled (impolite client, 1 attempt).
        client.get(Url::https(LIST_HOST, "/list")).unwrap();
        client.get(Url::https(LIST_HOST, "/list")).unwrap();
        let err = client.get(Url::https(LIST_HOST, "/list")).unwrap_err();
        assert!(matches!(err, NetError::RateLimited { .. }));
        // After waiting, requests flow again.
        net.clock().sleep(netsim::SimDuration::from_secs(2));
        assert!(client.get(Url::https(LIST_HOST, "/list")).is_ok());
    }

    #[test]
    fn captcha_wall_and_redeem_cycle() {
        let config = SiteConfig {
            captcha_every: Some(3),
            rate_limit: None,
            ..SiteConfig::open()
        };
        let (_net, _site, mut client) = setup(config, 5);
        for _ in 0..3 {
            assert!(client
                .get(Url::https(LIST_HOST, "/list"))
                .unwrap()
                .status
                .is_success());
        }
        // Credit exhausted → captcha page.
        let walled = client.get(Url::https(LIST_HOST, "/list")).unwrap();
        assert_eq!(walled.status, Status::Forbidden);
        let doc = parse_document(&walled.text()).unwrap();
        let captcha = Locator::id("captcha").find(&doc).unwrap();
        let id = captcha.attr("data-challenge-id").unwrap().to_string();
        let question = Locator::class("question")
            .find(&doc)
            .unwrap()
            .text_content();
        let answer = CaptchaBank::solve_question(&question).unwrap();
        // Redeem and retry with the pass.
        let token = client
            .post(
                Url::https(LIST_HOST, "/captcha/redeem"),
                format!("id={id}&answer={answer}"),
            )
            .unwrap()
            .text()
            .into_owned();
        let resp = client
            .get(Url::https(LIST_HOST, "/list").with_query("captcha_pass", &token))
            .unwrap();
        assert!(resp.status.is_success());
        // The pass is single-use: reusing it when credit runs out again fails.
        for _ in 0..2 {
            client.get(Url::https(LIST_HOST, "/list")).unwrap();
        }
        let reused = client
            .get(Url::https(LIST_HOST, "/list").with_query("captcha_pass", &token))
            .unwrap();
        assert_eq!(reused.status, Status::Forbidden);
    }

    #[test]
    fn email_wall_blocks_deep_pages_until_verified() {
        let config = SiteConfig {
            email_wall_after_page: Some(1),
            captcha_every: None,
            rate_limit: None,
            ..SiteConfig::open()
        };
        let (_net, _site, mut client) = setup(config, 200);
        assert!(client
            .get(Url::https(LIST_HOST, "/list").with_query("page", "1"))
            .unwrap()
            .status
            .is_success());
        let deep = client
            .get(Url::https(LIST_HOST, "/list").with_query("page", "2"))
            .unwrap();
        assert_eq!(deep.status, Status::Unauthorized);
        client
            .post(
                Url::https(LIST_HOST, "/verify-email"),
                "email=crawler@lab.example",
            )
            .unwrap();
        assert!(client
            .get(Url::https(LIST_HOST, "/list").with_query("page", "2"))
            .unwrap()
            .status
            .is_success());
    }

    #[test]
    fn wrong_captcha_answer_rejected() {
        let config = SiteConfig {
            captcha_every: Some(1),
            rate_limit: None,
            ..SiteConfig::open()
        };
        let (_net, _site, mut client) = setup(config, 5);
        client.get(Url::https(LIST_HOST, "/list")).unwrap();
        let walled = client.get(Url::https(LIST_HOST, "/list")).unwrap();
        let doc = parse_document(&walled.text()).unwrap();
        let id = Locator::id("captcha")
            .find(&doc)
            .unwrap()
            .attr("data-challenge-id")
            .unwrap()
            .to_string();
        let resp = client
            .post(
                Url::https(LIST_HOST, "/captcha/redeem"),
                format!("id={id}&answer=0"),
            )
            .unwrap();
        assert_eq!(resp.status, Status::Forbidden);
    }
}
