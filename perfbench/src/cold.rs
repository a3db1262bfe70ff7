//! `cold_audit`: a closed loop with one client running one full cold audit
//! after another — `Audit::builder()…run()` with the paper's defaults
//! (listing-site defenses on, the default most-voted honeypot sample), a
//! fresh world per audit, seeded `seed + i`.
//!
//! The traced run re-composes each audit from the layer crates' public
//! calls (world build, crawl, per-bot policy and code analysis, honeypot
//! campaign) and rejects the trace unless its canonical report is
//! byte-identical to `Audit::run()` for the same seed. It then replays the
//! listing and detail pages through `HttpClient::get` and
//! `htmlsim::parse_document` to split the crawl into serve, parse and the
//! crawler's own work.

use crate::report::{ms_since, nproc, ratio, Outcome, Samples};
use crate::trace::Tracer;
use crate::{report_audits, set_up, Args, Cpu, Meter, WARMUP_SEED};
use chatbot_audit::{
    validate_against_truth, Audit, AuditReport, AuditedBot, CanonicalReport, CodeFinding,
    LinkResolution, PlatformKind,
};
use codeanal::github::LinkOutcome;
use codeanal::scanner::scan_repository;
use codeanal::LinkCache;
use crawler::crawl::{crawl_listing, CrawledBot};
use crawler::extract::{extract_bot_links, extract_total_pages, ScrapedBot};
use honeypot::campaign::{BotUnderTest, Campaign};
use honeypot::DiscordSubstrate;
use netsim::client::{ClientConfig, HttpClient};
use netsim::http::Url;
use policy::AnalysisMemo;
use std::time::Instant;
use synth::truth::BehaviorClass;
use synth::Ecosystem;

/// Listings per audited world.
pub const SCALE: usize = 1000;

fn audit(scale: usize, seed: u64, workers: usize) -> Audit {
    Audit::builder()
        .scale(scale)
        .seed(seed)
        .workers(workers)
        .build()
        .expect("paper-default audit configuration is valid")
}

/// Check a report against the truth planted in its world: every listing
/// crawled, every static analyzer exact, traceability at the agreement the
/// repository's own validation test demands, and no benign bot accused.
fn check_against_truth(audit: &Audit, report: &CanonicalReport) -> Result<(), String> {
    let eco = synth::build_ecosystem(audit.ecosystem_config());
    let seed = audit.ecosystem_config().seed;
    if report.bots.len() != eco.truth.bots.len() || report.failures != 0 {
        return Err(format!(
            "seed {seed}: crawled {} of {} listings ({} failures)",
            report.bots.len(),
            eco.truth.bots.len(),
            report.failures
        ));
    }
    let bots: Vec<AuditedBot> = report
        .bots
        .iter()
        .map(|b| AuditedBot {
            crawled: CrawledBot {
                scraped: ScrapedBot {
                    id: b.id,
                    name: b.name.clone(),
                    invite_link: String::new(),
                    tags: Vec::new(),
                    description: String::new(),
                    guild_count: 0,
                    vote_count: 0,
                    website: None,
                    github: None,
                    developers: Vec::new(),
                    commands: Vec::new(),
                },
                invite_status: b.invite_status.clone(),
                website_reachable: b.website_reachable,
                policy_link_present: b.policy_link_present,
                policy: b.policy.clone(),
            },
            traceability: b.traceability.clone(),
            code: b.code.clone(),
        })
        .collect();
    let v = validate_against_truth(&bots, &eco.truth, None);
    let exact = [
        ("invite validity", v.invite_validity),
        ("policy discovery", v.policy_discovery),
        ("repo resolution", v.repo_resolution),
        ("check detection", v.check_detection),
    ];
    for (what, score) in exact {
        if score.precision() != 1.0 || score.recall() != 1.0 {
            return Err(format!("seed {seed}: {what} scored {score:?}"));
        }
    }
    if v.traceability_agreement <= 0.99 {
        return Err(format!(
            "seed {seed}: traceability agreement {}",
            v.traceability_agreement
        ));
    }
    let campaign = report
        .honeypot
        .as_ref()
        .ok_or_else(|| format!("seed {seed}: honeypot stage missing"))?;
    for d in &campaign.detections {
        let planted = eco.truth.by_name(&d.bot_name).map(|t| t.behavior);
        if matches!(planted, None | Some(BehaviorClass::Benign)) {
            return Err(format!("seed {seed}: honeypot accused {}", d.bot_name));
        }
    }
    Ok(())
}

/// Per-audit layer totals of the traced re-composition, in milliseconds
/// (times) and units of work (counts and bytes).
#[derive(Default)]
struct Layers {
    synth_ms: f64,
    crawl_ms: f64,
    serve_ms: f64,
    parse_ms: f64,
    policy_ms: f64,
    resolve_ms: f64,
    scan_ms: f64,
    honeypot_ms: f64,
    pages: u64,
    page_bytes: u64,
    parsed_bytes: u64,
    policy_bytes: u64,
    code_bytes: u64,
    memo_hits: u64,
    memo_lookups: u64,
    link_hits: u64,
    link_lookups: u64,
    guilds: u64,
    replay_failures: u64,
}

/// Re-run `audit`'s pipeline from the layer crates' public calls, the way
/// `Audit::run()` composes them, timing each call.
fn recompose(
    audit: &Audit,
    tracer: &Tracer,
    req: u64,
    l: &mut Layers,
) -> (CanonicalReport, Ecosystem) {
    let cfg = audit.config();
    let (eco, ms) = tracer.span("synth.build_ecosystem", req, || {
        synth::build_ecosystem(audit.ecosystem_config())
    });
    l.synth_ms += ms;
    assert_eq!(eco.kind, PlatformKind::Discord, "cold_audit audits Discord");

    let ((crawled, crawl_stats), ms) = tracer.span("crawler.crawl_listing", req, || {
        crawl_listing(&eco.net, &cfg.crawl)
    });
    l.crawl_ms += ms;

    let policy_before = cfg.ontology.kernel_stats();
    let code_before = codeanal::scanner_kernel_stats();
    let links = LinkCache::new();
    let memo = AnalysisMemo::new();
    let mut gh_client = HttpClient::new(
        eco.net.clone(),
        ClientConfig {
            politeness: None,
            ..ClientConfig::crawler("code-analysis/1.0")
        },
    );
    let mut bots = Vec::with_capacity(crawled.len());
    for bot in crawled {
        let requested = bot.invite_status.permission_names();
        let (traceability, ms) = tracer.span("policy.analyze", req, || {
            memo.analyze(bot.policy.as_ref(), &requested, &cfg.ontology)
        });
        l.policy_ms += ms;
        let code = bot.scraped.github.as_deref().map(|link| {
            let (outcome, ms) = tracer.span("codeanal.resolve", req, || {
                links.resolve(&mut gh_client, link)
            });
            l.resolve_ms += ms;
            let unscanned = |resolution| CodeFinding {
                resolution,
                language: None,
                has_source: false,
                performs_checks: None,
                scan: None,
            };
            match outcome {
                LinkOutcome::ValidRepo(repo) => {
                    let (scan, ms) =
                        tracer.span("codeanal.scan_repository", req, || scan_repository(&repo));
                    l.scan_ms += ms;
                    CodeFinding {
                        resolution: LinkResolution::ValidRepo,
                        language: repo.main_language(),
                        has_source: repo.has_source_code(),
                        performs_checks: Some(scan.performs_checks()),
                        scan: Some(scan),
                    }
                }
                LinkOutcome::UserProfile => unscanned(LinkResolution::UserProfile),
                LinkOutcome::NoPublicRepos => unscanned(LinkResolution::NoPublicRepos),
                LinkOutcome::Invalid => unscanned(LinkResolution::Invalid),
            }
        });
        bots.push(AuditedBot {
            crawled: bot,
            traceability,
            code,
        });
    }
    l.policy_bytes += cfg.ontology.kernel_stats().bytes_scanned - policy_before.bytes_scanned;
    l.code_bytes += codeanal::scanner_kernel_stats().bytes_scanned - code_before.bytes_scanned;
    l.memo_hits += memo.hits();
    l.memo_lookups += memo.hits() + memo.misses();
    l.link_hits += links.hits();
    l.link_lookups += links.hits() + links.misses();

    let substrate = DiscordSubstrate::new(eco.platform.clone(), eco.net.clone());
    let mut campaign = Campaign::new(substrate, cfg.honeypot.clone());
    let sample: Vec<BotUnderTest<DiscordSubstrate>> = eco
        .most_voted_testable(cfg.honeypot_sample)
        .into_iter()
        .map(|(truth, invite, bot_user, behavior)| BotUnderTest {
            name: truth.name,
            client_id: truth.client_id,
            bot_user: bot_user.0.raw(),
            invite: invite.to_url().to_string(),
            behavior,
        })
        .collect();
    let (honeypot, ms) = tracer.span("honeypot.campaign", req, || campaign.run(sample));
    l.honeypot_ms += ms;
    l.guilds += honeypot.guilds_created as u64;

    let report = AuditReport {
        platform: eco.kind,
        bots,
        crawl_stats,
        honeypot: Some(honeypot),
    };
    (report.canonical(), eco)
}

/// Replay the listing and every detail page through a plain client,
/// timing the fetch (site render and fabric: botlist/netsim) apart from
/// the parse (html). Runs after the audit so it cannot perturb it; the
/// client identity rotates before the site's captcha credit runs out.
fn replay_pages(eco: &Ecosystem, host: &str, tracer: &Tracer, req: u64, l: &mut Layers) {
    const PER_IDENTITY: u64 = 30;
    let mut served = 0u64;
    let mut client = None;
    let mut fetch = |url: Url, l: &mut Layers| -> Option<htmlsim::Document> {
        if served.is_multiple_of(PER_IDENTITY) {
            let agent = format!("perfbench-replay/{}", served / PER_IDENTITY);
            client = Some(HttpClient::new(
                eco.net.clone(),
                ClientConfig::crawler(&agent),
            ));
        }
        served += 1;
        let http = client.as_mut().expect("client set above");
        let (resp, ms) = tracer.span("botlist.serve", req, || http.get(url));
        l.serve_ms += ms;
        let resp = resp.ok().filter(|r| r.status.is_success());
        let Some(resp) = resp else {
            l.replay_failures += 1;
            return None;
        };
        l.pages += 1;
        l.page_bytes += resp.body.len() as u64;
        let text = resp.text();
        let (doc, ms) = tracer.span("html.parse_document", req, || {
            htmlsim::parse_document(&text)
        });
        l.parse_ms += ms;
        l.parsed_bytes += text.len() as u64;
        doc.ok()
    };
    let list = |page: usize| Url::https(host, "/list").with_query("page", &page.to_string());
    let Some(first) = fetch(list(0), l) else {
        return;
    };
    let total = extract_total_pages(&first).unwrap_or(1);
    let mut hrefs = extract_bot_links(&first).unwrap_or_default();
    for page in 1..total {
        if let Some(doc) = fetch(list(page), l) {
            hrefs.extend(extract_bot_links(&doc).unwrap_or_default());
        }
    }
    for href in hrefs {
        let url = if href.starts_with('/') {
            Url::https(host, &href)
        } else {
            match Url::parse(&href) {
                Ok(u) => u,
                Err(_) => continue,
            }
        };
        fetch(url, l);
    }
}

/// The set-up: one serial audit of the timed size, on a fixed world,
/// checked against its truth; it also compiles the lazily built kernels
/// before anything is timed.
fn warm_up(out: &mut Outcome) {
    let a = audit(SCALE, WARMUP_SEED, 1);
    out.check(
        a.run()
            .map_err(|e| format!("warm-up audit: {e}"))
            .and_then(|report| check_against_truth(&a, &report)),
    );
}

pub fn run(args: &Args, out: &mut Outcome) {
    set_up(out, warm_up);
    if args.trace {
        return run_traced(args, out);
    }
    // Audits alternate between one worker, whose CPU time — normalized by a
    // `Meter`, one segment per audit — is the gated cost
    // (two busy threads on a few shared cores add scheduler and cache
    // contention to it), and `nproc` workers, whose wall time is what an
    // operator waits for.
    let mut latency = Samples::default();
    let mut throughput = Samples::default();
    let mut cpu = Cpu::default();
    let started = Instant::now();
    let mut i = 0u64;
    while i < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let serial = i.is_multiple_of(2);
        let a = audit(SCALE, args.seed + i, if serial { 1 } else { nproc() });
        let mut meter = serial.then(Meter::start);
        let t = Instant::now();
        let report = a.run();
        let ms = ms_since(t);
        let (audit_cpu, norm_cpu) = meter.as_mut().map_or((0.0, 0.0), |m| m.split(0.0));
        i += 1;
        out.check(report.map_err(|e| e.to_string()).and_then(|r| {
            if serial {
                cpu.add(0, audit_cpu, norm_cpu, r.bots.len());
            } else {
                latency.push(ms);
                throughput.push(r.bots.len() as f64 / (ms / 1e3));
            }
            check_against_truth(&a, &r)
        }));
    }
    report_audits(out, &latency, &throughput, &cpu);
}

fn run_traced(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let started = Instant::now();
    let mut audits = 0u64;
    while audits == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let seed = args.seed + audits;
        let a = audit(SCALE, seed, 1);
        let run_untraced = |untraced: &mut Samples| {
            let t = Instant::now();
            let reference = a.run().expect("audit runs");
            untraced.push(ms_since(t));
            reference
        };
        // Alternate which side runs first so neither inherits the other's
        // warm caches more often.
        let early = audits
            .is_multiple_of(2)
            .then(|| run_untraced(&mut untraced));
        let ((report, eco), ms) = tracer.span("audit", audits, || {
            recompose(&a, &tracer, audits, &mut layers)
        });
        traced.push(ms);
        let reference = early.unwrap_or_else(|| run_untraced(&mut untraced));
        let same = serde_json::to_string(&report).expect("report serializes")
            == serde_json::to_string(&reference).expect("report serializes");
        out.check(if same {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: re-composed report differs from Audit::run()"
            ))
        });
        replay_pages(
            &eco,
            &a.config().crawl.list_host,
            &tracer,
            audits,
            &mut layers,
        );
        audits += 1;
    }
    out.check(if layers.replay_failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} replayed pages failed to load",
            layers.replay_failures
        ))
    });

    let n = audits as f64;
    let l = &layers;
    let crawl_self = l.crawl_ms - l.serve_ms - l.parse_ms;
    let self_times = [
        ("synth", l.synth_ms),
        ("botlist", l.serve_ms),
        ("html", l.parse_ms),
        ("crawler", crawl_self),
        ("policy", l.policy_ms),
        ("codeanal", l.resolve_ms + l.scan_ms),
        ("honeypot", l.honeypot_ms),
    ];
    let e2e = traced.sum();
    let attributed: f64 = self_times.iter().map(|(_, ms)| ms).sum();
    out.set("synth.build_ms", l.synth_ms / n, "ms");
    out.set("synth.builds", 1.0, "count");
    out.set("botlist.serve_ms", l.serve_ms / n, "ms");
    out.set("botlist.pages", l.pages as f64 / n, "count");
    out.set("botlist.bytes", l.page_bytes as f64 / n, "bytes");
    out.set("html.parse_ms", l.parse_ms / n, "ms");
    out.set("html.bytes", l.parsed_bytes as f64 / n, "bytes");
    out.set("crawler.crawl_ms", l.crawl_ms / n, "ms");
    out.set("crawler.self_ms", crawl_self / n, "ms");
    out.set("policy.analyze_ms", l.policy_ms / n, "ms");
    out.set("policy.bytes_scanned", l.policy_bytes as f64 / n, "bytes");
    out.set(
        "policy.memo_hit_ratio",
        ratio(l.memo_hits as f64, l.memo_lookups as f64),
        "ratio",
    );
    out.set("codeanal.resolve_ms", l.resolve_ms / n, "ms");
    out.set("codeanal.scan_ms", l.scan_ms / n, "ms");
    out.set("code.bytes_scanned", l.code_bytes as f64 / n, "bytes");
    out.set(
        "codeanal.link_cache_hit_ratio",
        ratio(l.link_hits as f64, l.link_lookups as f64),
        "ratio",
    );
    out.set("honeypot.campaign_ms", l.honeypot_ms / n, "ms");
    out.set("honeypot.guilds", l.guilds as f64 / n, "count");
    out.set(
        "obs.trace_overhead_ratio",
        traced.sum() / untraced.sum() - 1.0,
        "ratio",
    );
    out.set("trace.coverage", attributed / e2e, "ratio");
    crate::zero_unmeasured(out);

    let shares: Vec<String> = self_times
        .iter()
        .map(|(layer, ms)| format!("{layer} {:.1}%", 100.0 * ms / e2e))
        .collect();
    out.note(format!(
        "layer self-time shares of a serial cold audit at scale {SCALE} ({audits} audits, \
         {:.1} ms each): {}",
        e2e / n,
        shares.join(", ")
    ));
    out.note(format!(
        "crawl share (crawler+botlist+html) {:.1}%; policy+codeanal {:.1}%",
        100.0 * l.crawl_ms / e2e,
        100.0 * (l.policy_ms + l.resolve_ms + l.scan_ms) / e2e
    ));
    crate::write_trace(args, &tracer, out);
}
