//! # crawler — the data-collection stage (§3)
//!
//! "Our data collection process traverses listings of chatbots and extracts
//! attributes such as the permissions they request, sample commands, their
//! privacy policy, and the link to their source code repository."
//!
//! The crawler drives the `botlist` site through `htmlsim` locators — the
//! same arms-length, selector-based scraping Selenium gave the paper — and
//! copes with the full anti-scraping gauntlet:
//!
//! * politeness rate limiting and backoff (client-side);
//! * captcha interstitials, solved through a paid 2Captcha-style service
//!   ([`solver`]);
//! * email-verification walls;
//! * varying page structures (three layout variants, handled by trying
//!   multiple locators and reacting to `NoSuchElement`);
//! * invite links that are malformed, dead, removed, or redirect so slowly
//!   they time out ([`invite`]).
//!
//! [`crawl::crawl_listing`] runs the whole stage and yields one
//! [`crawl::CrawledBot`] per listing, the input to the traceability and
//! code-analysis stages. [`incremental`] adds the conditional-fetch warm
//! path: validators cached in a [`incremental::ValidatorStore`] plus the
//! site's `changed-since` ledger turn an unchanged page into one cheap
//! 304 round-trip on re-audit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crawl;
pub mod extract;
pub mod incremental;
pub mod invite;
pub mod session;
pub mod solver;

pub use crawl::{
    crawl_detail_unit, crawl_detail_unit_traced, crawl_listing, crawl_listing_traced,
    discover_listing, discover_listing_traced, CrawlConfig, CrawlStats, CrawledBot, DetailUnit,
    ListingIndex, SessionOverhead, CRAWL_UNIT_SIZE,
};
pub use extract::{extract_bot_detail, extract_bot_links, ScrapedBot};
pub use incremental::{
    crawl_detail_unit_validated, detail_key, discover_listing_validated, fetch_changed_hrefs,
    CachedDetail, CachedListing, MemValidatorStore, ValidatorStore, LISTING_KEY,
};
pub use invite::{validate_invite, InviteStatus};
pub use session::ScrapeSession;
pub use solver::{CaptchaSolverClient, CaptchaSolverService, SOLVER_HOST};
