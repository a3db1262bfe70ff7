//! The end-to-end data-collection run.
//!
//! Traverses the "top chatbot" list page by page (the paper walked over 800
//! pages), fetches every bot's detail page, validates its invite link,
//! visits its website looking for a privacy policy, and returns the full
//! measurement input set.

use crate::extract::{
    extract_bot_detail, extract_bot_links, extract_privacy_policy, extract_total_pages, ScrapedBot,
};
use crate::incremental::CachedListing;
use crate::invite::{validate_invite, InviteStatus};
use crate::session::ScrapeSession;
use botlist::LIST_HOST;
use htmlsim::Locator;
use netsim::clock::SimDuration;
use netsim::http::{Status, Url};
use netsim::Network;
use obs::{Obs, Span};
use policy::PrivacyPolicy;
use serde::{Deserialize, Serialize};

/// Crawl parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Stop after this many list pages (None = all advertised pages).
    pub max_pages: Option<usize>,
    /// Whether to validate invite links (network-heavy).
    pub validate_invites: bool,
    /// Whether to visit websites and fetch privacy policies.
    pub fetch_policies: bool,
    /// Seed for the session's human-behaviour jitter.
    pub seed: u64,
    /// Use the polite session (rate-limited, jittered). The ablation sets
    /// this false.
    pub polite: bool,
    /// The listing site's host. Each platform's directory lives on its own
    /// domain (`top.gg.sim` for Discord, `tdirectory.sim` for Telegram);
    /// relative detail hrefs resolve against this host.
    pub list_host: String,
    /// Which substrate this crawl measures. Every aggregate `crawl.*`
    /// counter publish is mirrored into `crawl.<platform>.*`
    /// (`crawl.discord.bots`, `crawl.telegram.validator_hits`, …) so a
    /// mixed-platform fleet sharing one registry can split crawl totals by
    /// substrate.
    pub platform: platform::PlatformKind,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            max_pages: None,
            validate_invites: true,
            fetch_policies: true,
            seed: 7,
            polite: true,
            list_host: LIST_HOST.to_string(),
            platform: platform::PlatformKind::Discord,
        }
    }
}

/// A legacy `crawl.<name>` counter paired with its per-platform mirror
/// (`crawl.<platform>.<name>`); every bump lands on both, keeping the
/// unprefixed totals stable for existing readers while giving
/// mixed-platform fleets a per-substrate split.
pub(crate) struct ScopedCounter(obs::Counter, obs::Counter);

impl ScopedCounter {
    pub(crate) fn new(obs: &Obs, config: &CrawlConfig, name: &str) -> ScopedCounter {
        ScopedCounter(
            obs.counter(&format!("crawl.{name}")),
            obs.counter(&format!("crawl.{}.{name}", config.platform.as_str())),
        )
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.add(n);
        self.1.add(n);
    }

    pub(crate) fn incr(&self) {
        self.add(1);
    }
}

/// Detail hrefs per crawl unit. Fixed (never derived from a worker count)
/// so unit sessions, and the journal a resumable run writes, are identical
/// whatever parallelism ran them.
///
/// Each unit crawls on its own session, which the directory meters as a
/// separate requester. A unit is therefore sized like one crawl machine's
/// session: long enough to meet a captcha wall set below it, so the crawl
/// still pays for the site's defenses, yet short of the default wall (every
/// 200 requests), which a world without a captcha solver (Telegram) cannot
/// pass.
pub const CRAWL_UNIT_SIZE: usize = 128;

/// Resolve a `workers` knob: 0 means one worker per available core.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// One fully-crawled bot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawledBot {
    /// Attributes scraped from the detail page.
    pub scraped: ScrapedBot,
    /// Invite-link validation outcome.
    pub invite_status: InviteStatus,
    /// Whether the listed website answered at all.
    pub website_reachable: bool,
    /// Whether the website shows a privacy-policy link.
    pub policy_link_present: bool,
    /// The fetched policy document, when the link worked.
    pub policy: Option<PrivacyPolicy>,
}

/// Aggregate statistics for a crawl.
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// List pages traversed.
    pub pages: usize,
    /// Bot detail pages successfully extracted.
    pub bots: usize,
    /// Detail pages that failed (dead listing entries).
    pub failures: usize,
    /// Captchas solved.
    pub captchas_solved: u64,
    /// 2Captcha spend in dollars.
    pub captcha_spend_dollars: f64,
    /// Email verifications performed.
    pub email_verifications: u64,
    /// Virtual wall-clock the crawl took.
    pub duration: SimDuration,
}

/// The per-page outcome of the listing traversal, merged in page order.
pub(crate) enum PageOutcome {
    /// The page never fetched (network failure after retries).
    FetchErr,
    /// The page fetched but its structure defeated extraction.
    ExtractErr,
    /// Bot detail links, in on-page order.
    Links(Vec<String>),
}

/// Fetch and classify one list page, also surfacing the content validator
/// and body size the server attached — the raw material of the validator
/// cache.
pub(crate) fn fetch_page_meta(
    session: &mut ScrapeSession,
    host: &str,
    page: usize,
) -> (PageOutcome, Option<String>, u64) {
    let url = Url::https(host, "/list").with_query("page", &page.to_string());
    let resp = match session.fetch(url) {
        Ok(r) => r,
        Err(_) => return (PageOutcome::FetchErr, None, 0),
    };
    if !resp.status.is_success() {
        return (PageOutcome::FetchErr, None, 0);
    }
    let etag = resp.header("etag").map(str::to_string);
    let bytes = resp.body.len() as u64;
    let doc = match htmlsim::parse_document(&resp.text()) {
        Ok(d) => d,
        Err(_) => return (PageOutcome::FetchErr, None, 0),
    };
    (classify_page(&doc), etag, bytes)
}

fn classify_page(doc: &htmlsim::Document) -> PageOutcome {
    match extract_bot_links(doc) {
        Err(_) => PageOutcome::ExtractErr,
        Ok(links) => PageOutcome::Links(links),
    }
}

/// Record a page traversal outcome on its trace span. Page outcomes are
/// session-independent, so the fields are safe for the canonical trace.
fn trace_page_outcome(span: &Span, outcome: &PageOutcome) {
    match outcome {
        PageOutcome::FetchErr => span.record("fetch_err", 1),
        PageOutcome::ExtractErr => span.record("extract_err", 1),
        PageOutcome::Links(links) => span.record("links", links.len() as u64),
    }
}

/// Everything one full detail-page crawl produced, including the content
/// validators the servers attached — what the incremental crawl caches.
pub(crate) struct DetailFetch {
    /// The crawled bot itself.
    pub bot: CrawledBot,
    /// The detail page's validator, when the site sent one.
    pub etag_detail: Option<String>,
    /// `(url, etag)` of the bot's website homepage, when fetched.
    pub home_validator: Option<(String, String)>,
    /// `(url, etag)` of the policy page, when fetched.
    pub policy_validator: Option<(String, String)>,
    /// Body bytes transferred across all full fetches for this bot.
    pub bytes: u64,
    /// Full-body page fetches performed (detail + homepage + policy).
    pub fetches: u64,
}

/// Outcome of a (possibly conditional) detail-page crawl.
pub(crate) enum DetailOutcome {
    /// Full crawl succeeded.
    Fetched(Box<DetailFetch>),
    /// The conditional fetch came back 304: the page matches the validator.
    NotModified,
    /// The detail page failed to fetch or extract (a dead listing entry).
    Failed,
}

/// Resolve a listing href to a fetchable URL against the listing host.
pub(crate) fn detail_url(host: &str, href: &str) -> Option<Url> {
    if href.starts_with('/') {
        Some(Url::https(host, href))
    } else {
        Url::parse(href).ok()
    }
}

/// Crawl one bot detail page: scrape, validate the invite, hunt the policy.
/// With `etag` attached the fetch is conditional and a 304 short-circuits
/// the whole chain (no parse, no invite validation, no website visit).
pub(crate) fn crawl_detail_validated(
    session: &mut ScrapeSession,
    href: &str,
    config: &CrawlConfig,
    etag: Option<&str>,
) -> DetailOutcome {
    let Some(url) = detail_url(&config.list_host, href) else {
        return DetailOutcome::Failed;
    };
    let resp = match etag {
        Some(tag) => session.fetch_conditional(url, tag),
        None => session.fetch(url),
    };
    let Ok(resp) = resp else {
        return DetailOutcome::Failed;
    };
    if resp.status == Status::NotModified {
        return DetailOutcome::NotModified;
    }
    if !resp.status.is_success() {
        return DetailOutcome::Failed;
    }
    let etag_detail = resp.header("etag").map(str::to_string);
    let mut bytes = resp.body.len() as u64;
    let mut fetches = 1u64;
    let Ok(doc) = htmlsim::parse_document(&resp.text()) else {
        return DetailOutcome::Failed;
    };
    let Ok(scraped) = extract_bot_detail(&doc) else {
        return DetailOutcome::Failed;
    };

    let invite_status = if config.validate_invites {
        validate_invite(session.http(), &scraped.invite_link)
    } else {
        InviteStatus::MalformedLink
    };

    let (website_reachable, policy_link_present, policy, home_validator, policy_validator) =
        if config.fetch_policies {
            let pf = fetch_policy_meta(session, scraped.website.as_deref());
            bytes += pf.bytes;
            fetches += pf.fetches;
            (
                pf.reachable,
                pf.link_present,
                pf.policy,
                pf.home_validator,
                pf.policy_validator,
            )
        } else {
            (false, false, None, None, None)
        };

    DetailOutcome::Fetched(Box::new(DetailFetch {
        bot: CrawledBot {
            scraped,
            invite_status,
            website_reachable,
            policy_link_present,
            policy,
        },
        etag_detail,
        home_validator,
        policy_validator,
        bytes,
        fetches,
    }))
}

/// [`crawl_detail_validated`] without a validator, for the cold paths.
fn crawl_detail(
    session: &mut ScrapeSession,
    href: &str,
    config: &CrawlConfig,
) -> Result<CrawledBot, ()> {
    match crawl_detail_validated(session, href, config, None) {
        DetailOutcome::Fetched(fetch) => Ok(fetch.bot),
        _ => Err(()),
    }
}

/// Run the data-collection stage against the mounted listing site: the
/// listing traversal ([`discover_listing`]) followed by the detail pages in
/// fixed [`CRAWL_UNIT_SIZE`] chunks ([`crawl_detail_unit`]), serially. The
/// audit pipeline runs exactly these units (journaled, on its worker pool),
/// so this crawl yields the bots and statistics an audit reports.
pub fn crawl_listing(net: &Network, config: &CrawlConfig) -> (Vec<CrawledBot>, CrawlStats) {
    crawl_listing_traced(net, config, &Obs::disabled(), &Span::disabled())
}

/// [`crawl_listing`] with observability attached: a `crawl` span under
/// `parent` holding the `listing` span (one `page` child per list page) and
/// a `units` span (one `unit` child per detail chunk). Keys depend only on
/// the crawled world, so the canonical trace is worker-count-invariant.
/// Metrics go to `obs` under `crawl.*`.
pub fn crawl_listing_traced(
    net: &Network,
    config: &CrawlConfig,
    obs: &Obs,
    parent: &Span,
) -> (Vec<CrawledBot>, CrawlStats) {
    let clock = net.clock();
    let started = clock.now();
    let span = parent.child("crawl");
    let listing = discover_listing_traced(net, config, obs, &span);
    let units_span = span.child("units");
    let units: Vec<DetailUnit> = listing
        .hrefs
        .chunks(CRAWL_UNIT_SIZE)
        .enumerate()
        .map(|(unit, hrefs)| {
            crawl_detail_unit_traced(net, config, hrefs, unit as u64, obs, &units_span)
        })
        .collect();
    let mut stats = CrawlStats::of(&listing, &units);
    stats.duration = clock.now().duration_since(started);
    let bots = units
        .into_iter()
        .flat_map(|unit| unit.results)
        .flatten()
        .collect();
    (bots, stats)
}

impl CrawlStats {
    /// The totals of a listing traversal and its detail units: pages from
    /// the listing, crawled bots and failures from the units, session
    /// overhead summed over all of them. The duration is left at zero for
    /// the caller, which knows when the crawl started.
    pub fn of(listing: &ListingIndex, units: &[DetailUnit]) -> CrawlStats {
        let mut overhead = listing.overhead;
        let mut stats = CrawlStats {
            pages: listing.pages,
            ..CrawlStats::default()
        };
        for unit in units {
            overhead.absorb(&unit.overhead);
            let ok = unit.results.iter().filter(|r| r.is_some()).count();
            stats.bots += ok;
            stats.failures += unit.results.len() - ok;
        }
        stats.captchas_solved = overhead.captchas_solved;
        stats.captcha_spend_dollars = overhead.captcha_spend_dollars;
        stats.email_verifications = overhead.email_verifications;
        stats
    }
}

/// Session overhead counters carried inside journaled crawl units, so a
/// resumed run reports the spend of the work it actually performed (replayed
/// units contribute the spend recorded when they first ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionOverhead {
    /// Captchas solved during the unit.
    pub captchas_solved: u64,
    /// 2Captcha spend in dollars during the unit.
    pub captcha_spend_dollars: f64,
    /// Email verifications performed during the unit.
    pub email_verifications: u64,
}

impl SessionOverhead {
    pub(crate) fn of(session: &ScrapeSession) -> SessionOverhead {
        SessionOverhead {
            captchas_solved: session.captchas_solved,
            captcha_spend_dollars: session.captcha_spend_dollars(),
            email_verifications: session.email_verifications,
        }
    }

    /// Fold another unit's overhead into this one.
    pub fn absorb(&mut self, other: &SessionOverhead) {
        self.captchas_solved += other.captchas_solved;
        self.captcha_spend_dollars += other.captcha_spend_dollars;
        self.email_verifications += other.email_verifications;
    }
}

/// Phase A of the crawl as a journalable unit: the merged listing-page
/// traversal. Serializable so the resumable pipeline can record it once and
/// replay it across process restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListingIndex {
    /// Bot detail hrefs, in listing order.
    pub hrefs: Vec<String>,
    /// List pages traversed (the serial traversal's page-count semantics).
    pub pages: usize,
    /// Session spend for the traversal.
    pub overhead: SessionOverhead,
}

/// One journalable chunk of phase B: the detail-page outcomes for a
/// contiguous slice of the listing, in listing order. `None` marks a dead
/// listing entry (a crawl failure), preserved so replay reproduces the
/// failure count exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetailUnit {
    /// Per-href outcome, aligned with the input slice.
    pub results: Vec<Option<CrawledBot>>,
    /// Session spend for the unit.
    pub overhead: SessionOverhead,
}

/// Phase A only: traverse the listing serially and return the merged
/// detail-href index. The resumable pipeline journals the result so a
/// restarted run never re-walks the listing.
pub fn discover_listing(net: &Network, config: &CrawlConfig) -> ListingIndex {
    discover_listing_traced(net, config, &Obs::disabled(), &Span::disabled())
}

/// [`discover_listing`] with observability attached: a `listing` span with
/// per-page children under `parent`, `crawl.*` counters on `obs`.
pub fn discover_listing_traced(
    net: &Network,
    config: &CrawlConfig,
    obs: &Obs,
    parent: &Span,
) -> ListingIndex {
    discover_listing_capturing(net, config, obs, parent).0
}

/// The listing traversal, additionally capturing the per-page content
/// validators so the next run can revalidate instead of re-walk. The
/// captured [`CachedListing`] is `Some` only for a *clean* traversal —
/// every page fetched, extracted, non-empty, and validator-tagged — since
/// anything less would make the cached index diverge from a re-crawl.
pub(crate) fn discover_listing_capturing(
    net: &Network,
    config: &CrawlConfig,
    obs: &Obs,
    parent: &Span,
) -> (ListingIndex, Option<CachedListing>) {
    let span = parent.child("listing");
    let page_ms = obs.histogram("crawl.page_ms");
    let clock = net.clock();
    let mut session = ScrapeSession::for_worker(net.clone(), config.seed, 0, config.polite);
    let mut index = ListingIndex {
        hrefs: Vec::new(),
        pages: 0,
        overhead: SessionOverhead::default(),
    };

    let url0 = Url::https(&config.list_host, "/list").with_query("page", "0");
    let (first, first_etag, first_bytes) = match session.fetch(url0) {
        Ok(resp) if resp.status.is_success() => {
            let etag = resp.header("etag").map(str::to_string);
            let bytes = resp.body.len() as u64;
            match htmlsim::parse_document(&resp.text()) {
                Ok(doc) => (doc, etag, bytes),
                Err(_) => {
                    index.overhead = SessionOverhead::of(&session);
                    return (index, None);
                }
            }
        }
        _ => {
            index.overhead = SessionOverhead::of(&session);
            return (index, None);
        }
    };
    let total_pages = extract_total_pages(&first).unwrap_or(1);
    let limit = config.max_pages.map_or(total_pages, |m| m.min(total_pages));

    let mut outcomes: Vec<(PageOutcome, Option<String>, u64)> = Vec::with_capacity(limit);
    if limit > 0 {
        let first_outcome = classify_page(&first);
        trace_page_outcome(&span.child_keyed("page", 0), &first_outcome);
        outcomes.push((first_outcome, first_etag, first_bytes));
    }
    for page in 1..limit {
        let page_span = span.child_keyed("page", page as u64);
        let t0 = clock.now();
        let (outcome, etag, bytes) = fetch_page_meta(&mut session, &config.list_host, page);
        page_ms.record(clock.now().duration_since(t0).as_millis());
        trace_page_outcome(&page_span, &outcome);
        outcomes.push((outcome, etag, bytes));
    }

    let mut etags: Vec<String> = Vec::new();
    let mut body_bytes = 0u64;
    let mut clean = true;
    for (outcome, etag, bytes) in outcomes {
        match outcome {
            PageOutcome::FetchErr => {
                clean = false;
                continue;
            }
            PageOutcome::ExtractErr => {
                clean = false;
                index.pages += 1;
            }
            PageOutcome::Links(links) => {
                index.pages += 1;
                if links.is_empty() {
                    clean = false;
                    break; // past the end
                }
                index.hrefs.extend(links);
                match etag {
                    Some(tag) => {
                        etags.push(tag);
                        body_bytes += bytes;
                    }
                    None => clean = false,
                }
            }
        }
    }

    index.overhead = SessionOverhead::of(&session);
    span.record("pages", index.pages as u64);
    span.record("hrefs", index.hrefs.len() as u64);
    ScopedCounter::new(obs, config, "pages_fetched").add(index.pages as u64);
    ScopedCounter::new(obs, config, "fetched_full").add(index.pages as u64);
    ScopedCounter::new(obs, config, "captchas_solved").add(index.overhead.captchas_solved);
    ScopedCounter::new(obs, config, "email_verifications").add(index.overhead.email_verifications);
    let cached = (clean && !etags.is_empty()).then(|| CachedListing {
        etags,
        hrefs: index.hrefs.clone(),
        pages: index.pages,
        bytes: body_bytes,
    });
    (index, cached)
}

/// Crawl one contiguous chunk of detail hrefs with a dedicated session.
///
/// The session seed and requester identity depend only on `config.seed`
/// and the unit index — not on any worker count — so the journal a
/// resumable run writes is identical whatever parallelism produced it, and
/// replaying a unit is byte-equivalent to re-crawling it.
pub fn crawl_detail_unit(
    net: &Network,
    config: &CrawlConfig,
    hrefs: &[String],
    unit: u64,
) -> DetailUnit {
    crawl_detail_unit_traced(
        net,
        config,
        hrefs,
        unit,
        &Obs::disabled(),
        &Span::disabled(),
    )
}

/// [`crawl_detail_unit`] with observability attached: a `unit` span keyed by
/// the unit index (worker-count-independent) under `parent`, `crawl.*`
/// counters on `obs`.
pub fn crawl_detail_unit_traced(
    net: &Network,
    config: &CrawlConfig,
    hrefs: &[String],
    unit: u64,
    obs: &Obs,
    parent: &Span,
) -> DetailUnit {
    let span = parent.child_keyed("unit", unit);
    let mut session = ScrapeSession::for_worker(
        net.clone(),
        netsim::splitmix(config.seed, 0x1000 + unit),
        1 + unit as usize,
        config.polite,
    );
    let results: Vec<Option<CrawledBot>> = hrefs
        .iter()
        .map(|href| crawl_detail(&mut session, href, config).ok())
        .collect();
    let ok = results.iter().filter(|r| r.is_some()).count() as u64;
    span.record("ok", ok);
    span.record("failed", results.len() as u64 - ok);
    ScopedCounter::new(obs, config, "bots").add(ok);
    ScopedCounter::new(obs, config, "detail_failures").add(results.len() as u64 - ok);
    let overhead = SessionOverhead::of(&session);
    ScopedCounter::new(obs, config, "captchas_solved").add(overhead.captchas_solved);
    ScopedCounter::new(obs, config, "email_verifications").add(overhead.email_verifications);
    DetailUnit { results, overhead }
}

/// What one website visit produced, validators and transfer cost included.
pub(crate) struct PolicyFetch {
    /// The homepage answered.
    pub reachable: bool,
    /// The homepage shows a privacy-policy link.
    pub link_present: bool,
    /// The policy document, when the link worked.
    pub policy: Option<PrivacyPolicy>,
    /// `(url, etag)` of the homepage, when it answered with a validator.
    pub home_validator: Option<(String, String)>,
    /// `(url, etag)` of the policy page, when it answered with a validator.
    pub policy_validator: Option<(String, String)>,
    /// Body bytes transferred.
    pub bytes: u64,
    /// Full-body fetches performed.
    pub fetches: u64,
}

/// Visit a bot's website and hunt for its privacy policy, recording the
/// validators each page served so the visit can later be revalidated with
/// 304s instead of repeated.
pub(crate) fn fetch_policy_meta(session: &mut ScrapeSession, website: Option<&str>) -> PolicyFetch {
    let mut out = PolicyFetch {
        reachable: false,
        link_present: false,
        policy: None,
        home_validator: None,
        policy_validator: None,
        bytes: 0,
        fetches: 0,
    };
    let Some(site) = website else {
        return out;
    };
    let Ok(home_url) = Url::parse(site) else {
        return out;
    };
    let Ok(resp) = session.http().get(home_url.clone()) else {
        return out;
    };
    if !resp.status.is_success() {
        return out;
    }
    out.reachable = true;
    out.bytes += resp.body.len() as u64;
    out.fetches += 1;
    out.home_validator = resp
        .header("etag")
        .map(|t| (home_url.to_string(), t.to_string()));
    let Ok(doc) = htmlsim::parse_document(&resp.text()) else {
        return out;
    };
    let Ok(link) = Locator::id("privacy-link").find(&doc) else {
        return out;
    };
    let Some(href) = link.attr("href") else {
        return out;
    };
    out.link_present = true;
    let Ok(policy_url) = home_url.join(href) else {
        return out;
    };
    let Ok(presp) = session.http().get(policy_url.clone()) else {
        return out;
    };
    if !presp.status.is_success() {
        return out;
    }
    out.bytes += presp.body.len() as u64;
    out.fetches += 1;
    out.policy_validator = presp
        .header("etag")
        .map(|t| (policy_url.to_string(), t.to_string()));
    let Ok(pdoc) = htmlsim::parse_document(&presp.text()) else {
        return out;
    };
    out.policy = extract_privacy_policy(&pdoc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CaptchaSolverService;
    use botlist::website::{BotWebsite, PolicyHosting};
    use botlist::{BotListSite, BotListing, SiteConfig};
    use discord_sim::oauth::InviteUrl;
    use discord_sim::platform::Platform;
    use discord_sim::webgate::OAuthWebGate;
    use discord_sim::{GuildVisibility, Permissions};
    use netsim::clock::VirtualClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small end-to-end world: platform + webgate + listing site +
    /// websites + solver.
    fn build_world(n_bots: u64) -> Network {
        let clock = VirtualClock::new();
        let net = Network::with_clock(77, clock.clone());
        let platform = Platform::new(clock);
        CaptchaSolverService::mount(&net);
        OAuthWebGate::new(platform.clone()).mount(&net);

        let owner = platform.register_user("dev", "d@x.y");
        platform
            .create_guild(owner, "seed", GuildVisibility::Public)
            .unwrap();

        let mut rng = StdRng::seed_from_u64(4);
        let mut listings = Vec::new();
        for i in 0..n_bots {
            let app = platform
                .register_bot_application(owner, &format!("Bot{i}"))
                .unwrap();
            // Mix of valid / removed / malformed invite links.
            let invite_link = match i % 4 {
                0 | 1 => InviteUrl::bot(app.client_id, Permissions::ADMINISTRATOR)
                    .to_url()
                    .to_string(),
                2 => InviteUrl::bot(999_000 + i, Permissions::NONE)
                    .to_url()
                    .to_string(), // removed
                _ => "totally-broken".to_string(),
            };
            // Half the bots have websites; half of those have policies.
            let website = if i % 2 == 0 {
                let host = format!("bot{i}.site.sim");
                let hosting = if i % 4 == 0 {
                    PolicyHosting::Linked(policy::corpus::complete_policy(
                        &mut rng,
                        &format!("Bot{i}"),
                        true,
                    ))
                } else {
                    PolicyHosting::None
                };
                BotWebsite::new(&format!("Bot{i}"), hosting).mount(&net, &host);
                Some(format!("https://{host}/"))
            } else {
                None
            };
            listings.push(BotListing {
                id: app.client_id,
                name: format!("Bot{i}"),
                tags: vec!["fun".into()],
                description: format!("Bot number {i}"),
                invite_link,
                guild_count: 100 * i,
                vote_count: 1000 - i,
                website,
                github: None,
                developers: vec![format!("dev{}", i % 3)],
                commands: vec![format!("!cmd{i}")],
            });
        }
        BotListSite::new(
            listings,
            SiteConfig {
                page_size: 4,
                captcha_every: Some(10),
                rate_limit: None,
                email_wall_after_page: None,
                ..SiteConfig::open()
            },
        )
        .mount(&net);
        net
    }

    #[test]
    fn full_crawl_collects_everything() {
        let net = build_world(12);
        let (bots, stats) = crawl_listing(&net, &CrawlConfig::default());
        assert_eq!(bots.len(), 12);
        assert_eq!(stats.bots, 12);
        assert_eq!(stats.pages, 3);
        assert!(stats.duration > SimDuration::ZERO);

        let valid = bots.iter().filter(|b| b.invite_status.is_valid()).count();
        let removed = bots
            .iter()
            .filter(|b| b.invite_status == InviteStatus::Removed)
            .count();
        let malformed = bots
            .iter()
            .filter(|b| b.invite_status == InviteStatus::MalformedLink)
            .count();
        assert_eq!(valid, 6);
        assert_eq!(removed, 3);
        assert_eq!(malformed, 3);

        let with_site = bots.iter().filter(|b| b.website_reachable).count();
        assert_eq!(with_site, 6);
        // Sample commands survive both detail-page layouts.
        assert!(bots.iter().all(|b| b.scraped.commands.len() == 1));
        assert!(bots
            .iter()
            .any(|b| b.scraped.commands[0].starts_with("!cmd")));
        let with_policy = bots.iter().filter(|b| b.policy.is_some()).count();
        assert_eq!(with_policy, 3);
        // Permissions decoded for valid links.
        for b in bots.iter().filter(|b| b.invite_status.is_valid()) {
            let InviteStatus::Valid { permissions, .. } = &b.invite_status else {
                unreachable!()
            };
            assert!(permissions.contains(Permissions::ADMINISTRATOR));
        }
    }

    #[test]
    fn crawl_solves_captchas_on_the_way() {
        let net = build_world(12);
        let (_bots, stats) = crawl_listing(&net, &CrawlConfig::default());
        assert!(stats.captchas_solved >= 1, "captcha wall hit during crawl");
        assert!(stats.captcha_spend_dollars > 0.0);
    }

    #[test]
    fn max_pages_bounds_the_crawl() {
        let net = build_world(12);
        let (bots, stats) = crawl_listing(
            &net,
            &CrawlConfig {
                max_pages: Some(1),
                ..CrawlConfig::default()
            },
        );
        assert_eq!(stats.pages, 1);
        assert_eq!(bots.len(), 4);
    }

    #[test]
    fn crawl_without_policy_fetch_skips_websites() {
        let net = build_world(8);
        let (bots, _stats) = crawl_listing(
            &net,
            &CrawlConfig {
                fetch_policies: false,
                ..CrawlConfig::default()
            },
        );
        assert!(bots
            .iter()
            .all(|b| !b.website_reachable && b.policy.is_none()));
    }

    #[test]
    fn deterministic_crawl() {
        let run = || {
            let net = build_world(8);
            let (bots, stats) = crawl_listing(&net, &CrawlConfig::default());
            (
                bots.iter()
                    .map(|b| (b.scraped.id, b.invite_status.clone(), b.policy.is_some()))
                    .collect::<Vec<_>>(),
                stats.pages,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_mirror_into_the_platform_namespace() {
        for kind in platform::PlatformKind::ALL {
            let net = build_world(8);
            let obs_handle = Obs::disabled();
            let config = CrawlConfig {
                platform: kind,
                ..CrawlConfig::default()
            };
            crawl_listing_traced(&net, &config, &obs_handle, &Span::disabled());
            let scoped =
                |name: &str| obs_handle.counter_value(&format!("crawl.{}.{name}", kind.as_str()));
            for name in ["pages_fetched", "bots", "detail_failures"] {
                assert_eq!(
                    obs_handle.counter_value(&format!("crawl.{name}")),
                    scoped(name),
                    "crawl.{name} vs crawl.{}.{name}",
                    kind.as_str()
                );
            }
            assert_eq!(scoped("bots"), 8);
            // The other platform's namespace stays untouched.
            let other = platform::PlatformKind::ALL
                .iter()
                .find(|k| **k != kind)
                .unwrap();
            assert_eq!(
                obs_handle.counter_value(&format!("crawl.{}.bots", other.as_str())),
                0
            );
        }
    }
}
