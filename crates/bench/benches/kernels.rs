//! Kernel microbenchmarks for the audit's hot paths.
//!
//! Three kernels. The two analysis kernels are each measured both ways on
//! the same corpus, naive per-needle scanning vs the single-pass
//! `matchkit` automata that now sit behind them:
//!
//! * **policy keywords** — per-keyword `contains_word_prefix` over a
//!   lowercased copy (the pre-automaton loop) vs one case-insensitive
//!   word-prefix automaton pass ([`KeywordOntology::practices_in`]);
//! * **Table 3 needles** — `strip_noncode` into a fresh `String` followed
//!   by four `str::matches` passes vs the fused strip+match stream that
//!   [`scan_repository`] runs per file;
//! * **crawl page** — the crawl's per-page path, end to end: a mounted
//!   [`BotListSite`] serves a detail page (builder tree → HTML render),
//!   [`parse_document`] parses it, and [`extract_bot_detail`] runs the
//!   scraper's locators over it. One function per detail layout.

use botlist::{BotListSite, BotListing, SiteConfig, LIST_HOST};
use codeanal::genrepo;
use codeanal::scanner::{scan_repository, strip_noncode};
use codeanal::{CheckPattern, Language, Repository};
use crawler::extract_bot_detail;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use htmlsim::parse_document;
use netsim::client::{ClientConfig, HttpClient};
use netsim::http::Url;
use netsim::Network;
use policy::{contains_word_prefix, corpus, DataPractice, KeywordOntology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A seeded mix of the policy population the synthesizer plants: tailored,
/// generic-template, partial, vacuous, and junk pages.
fn policy_corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(22);
    let mut out = Vec::new();
    for i in 0..400 {
        let doc = match i % 5 {
            0 => corpus::complete_policy(&mut rng, "BenchBot", true),
            1 => corpus::complete_policy(&mut rng, "BenchBot", false),
            2 => corpus::partial_policy(
                &mut rng,
                "BenchBot",
                &[DataPractice::Collect, DataPractice::Use],
                false,
            ),
            3 => corpus::generic_boilerplate(),
            _ => corpus::vacuous_policy(),
        };
        out.push(doc.full_text());
    }
    out
}

/// The pre-automaton keyword loop: lowercase once, then probe every
/// keyword of every practice with the naive word-prefix scan.
fn naive_practices_in(ontology: &KeywordOntology, text: &str) -> Vec<DataPractice> {
    let lowered = text.to_lowercase();
    DataPractice::ALL
        .iter()
        .copied()
        .filter(|p| {
            ontology
                .keywords(*p)
                .iter()
                .any(|k| contains_word_prefix(&lowered, k))
        })
        .collect()
}

fn repo_corpus() -> Vec<Repository> {
    let mut rng = StdRng::seed_from_u64(33);
    let mut out = Vec::new();
    for i in 0..120 {
        out.push(match i % 4 {
            0 => genrepo::js_bot_repo(&mut rng, "d/a", true),
            1 => genrepo::js_bot_repo(&mut rng, "d/b", false),
            2 => genrepo::py_bot_repo(&mut rng, "d/c", true),
            _ => genrepo::py_bot_repo(&mut rng, "d/d", false),
        });
    }
    out
}

/// The pre-fusion Table 3 scan: materialize the stripped code, then run
/// one `str::matches` pass per needle.
fn naive_repo_hits(repo: &Repository) -> usize {
    let mut hits = 0;
    for file in &repo.files {
        let Some(lang) = file.language() else {
            continue;
        };
        if !matches!(
            lang,
            Language::JavaScript | Language::TypeScript | Language::Python
        ) {
            continue;
        }
        let code = strip_noncode(&file.content, &lang);
        for pattern in CheckPattern::ALL {
            hits += code.matches(pattern.needle()).count();
        }
    }
    hits
}

/// Sum of per-pattern occurrence counts in a scan report.
fn report_hits(report: &codeanal::ScanReport) -> usize {
    report.hits.iter().map(|(_, n)| n).sum()
}

fn bench_policy_kernel(c: &mut Criterion) {
    let ontology = KeywordOntology::standard();
    let texts = policy_corpus();
    let total_bytes: usize = texts.iter().map(|t| t.len()).sum();

    let mut group = c.benchmark_group("kernels/policy_keywords");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function(BenchmarkId::from_parameter("naive_per_keyword"), |b| {
        b.iter(|| {
            let mut found = 0usize;
            for text in &texts {
                found += naive_practices_in(&ontology, black_box(text)).len();
            }
            black_box(found)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("automaton_single_pass"), |b| {
        b.iter(|| {
            let mut found = 0usize;
            for text in &texts {
                found += ontology.practices_in(black_box(text)).len();
            }
            black_box(found)
        })
    });
    group.finish();

    // The two implementations must agree on the corpus before either
    // timing is worth trusting.
    for text in &texts {
        assert_eq!(
            naive_practices_in(&ontology, text),
            ontology.practices_in(text)
        );
    }
}

fn bench_scanner_kernel(c: &mut Criterion) {
    let repos = repo_corpus();
    let total_bytes: usize = repos
        .iter()
        .flat_map(|r| r.files.iter())
        .map(|f| f.content.len())
        .sum();

    let mut group = c.benchmark_group("kernels/table3_needles");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function(BenchmarkId::from_parameter("naive_strip_then_match"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for repo in &repos {
                hits += naive_repo_hits(black_box(repo));
            }
            black_box(hits)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("fused_stream"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for repo in &repos {
                hits += report_hits(&scan_repository(black_box(repo)));
            }
            black_box(hits)
        })
    });
    group.finish();

    for repo in &repos {
        assert_eq!(naive_repo_hits(repo), report_hits(&scan_repository(repo)));
    }
}

/// Detail pages crawled per timed iteration, per layout.
const CRAWL_PAGES: u64 = 120;

/// A listing with every optional field set, so its detail page carries
/// every element the scraper looks for.
fn crawl_listing(id: u64) -> BotListing {
    BotListing {
        tags: vec!["moderation".into(), "music".into(), "utility".into()],
        description: format!("Bot {id} keeps the peace & plays <tunes> on demand."),
        guild_count: 100 * id,
        website: Some(format!("https://bot-{id}.site.sim/")),
        github: Some(format!("https://github.sim/dev/bot-{id}")),
        developers: vec![format!("dev-{id}"), "helper#0001".into()],
        commands: vec!["!ban".into(), "!play".into(), "!help".into()],
        ..BotListing::minimal(
            id,
            &format!("CrawlBot{id}"),
            &format!("https://discord.sim/oauth2/authorize?client_id={id}&scope=bot"),
            10_000 - id,
        )
    }
}

/// Serve, parse and extract every page in `ids`; returns the extracted
/// name bytes so the work cannot be optimized away.
fn crawl_pages(client: &mut HttpClient, ids: &[u64]) -> usize {
    let mut name_bytes = 0;
    for id in ids {
        let resp = client
            .get(Url::https(LIST_HOST, &format!("/bot/{id}")))
            .expect("open site serves");
        let doc = parse_document(&resp.text()).expect("site emits valid html");
        name_bytes += extract_bot_detail(&doc).expect("scraper fits").name.len();
    }
    name_bytes
}

fn bench_crawl_page_kernel(c: &mut Criterion) {
    // Detail layout is chosen per bot: ids with `id % 3 == 2` get the
    // alternate profile card, the rest the primary page.
    let net = Network::new(44);
    let site = BotListSite::new(
        (1..=3 * CRAWL_PAGES).map(crawl_listing).collect(),
        SiteConfig::open(),
    );
    site.mount(&net);
    let mut client = HttpClient::new(net, ClientConfig::impolite("bench"));
    let primary: Vec<u64> = (1..=3 * CRAWL_PAGES)
        .filter(|id| id % 3 != 2)
        .take(CRAWL_PAGES as usize)
        .collect();
    let alternate: Vec<u64> = (1..=3 * CRAWL_PAGES).filter(|id| id % 3 == 2).collect();

    let mut group = c.benchmark_group("kernels/crawl_page");
    group.throughput(Throughput::Elements(CRAWL_PAGES));
    for (layout, ids) in [
        ("primary_layout", &primary),
        ("alternate_layout", &alternate),
    ] {
        group.bench_function(BenchmarkId::from_parameter(layout), |b| {
            b.iter(|| crawl_pages(&mut client, black_box(ids)))
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_policy_kernel,
    bench_scanner_kernel,
    bench_crawl_page_kernel
);
criterion_main!(kernels);
