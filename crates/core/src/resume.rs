//! The stage graph: one path for every audit.
//!
//! The paper's measurement ran for weeks and was restarted many times; every
//! restart re-paid crawl and analysis work. Every audit therefore runs
//! through an [`AuditStore`]: each completed unit of work — the listing
//! traversal, every fixed-size chunk of detail pages, every per-bot
//! analysis, the honeypot campaign — is journaled the moment it finishes,
//! and analysis outputs live in a content-addressed artifact cache keyed by
//! the bot's crawled bytes. An in-memory audit ([`AuditPipeline::run_full`],
//! [`AuditPipeline::run_static_stages`], `Audit::run`) is the same journaled
//! audit over a throwaway store ([`AuditStore::throwaway`]), which replays
//! nothing and keeps nothing.
//!
//! The graph has two halves. The static half crawls (the listing, then the
//! detail units) and analyzes each bot; detail units and analyses fan out
//! on one claim-counter pool ([`AuditConfig::workers`] threads). The
//! dynamic half runs the honeypot campaign.
//!
//! Three properties follow, and the test suite pins them down:
//!
//! * **Worker-count independence.** Detail pages crawl in fixed
//!   [`CRAWL_UNIT_SIZE`] chunks whose sessions depend only on the crawl
//!   seed and chunk index, and analyses are keyed by listing index, so the
//!   report, the trace and the journal layout are the same at any worker
//!   count.
//! * **Crash-equivalence.** A run killed after any number of frames, then
//!   resumed, produces a canonical report byte-identical to an uninterrupted
//!   run: request *content* is independent of request scheduling, so
//!   skipping already-journaled requests does not perturb the remainder.
//! * **Incrementality.** A fresh (non-resumed) run against a warm artifact
//!   pack re-crawls but performs **zero** policy or code re-analyses for
//!   unchanged bots — the artifact counters in [`store::StoreStats`] (also
//!   mirrored into the pipeline's obs registry under `store.*`) prove it.

use crate::pipeline::{AuditConfig, AuditPipeline, AuditReport, AuditedBot, CodeFinding};
use codeanal::LinkCache;
use crawler::crawl::{
    crawl_detail_unit_traced, discover_listing_traced, resolve_workers, CrawlStats, CrawledBot,
    DetailUnit, ListingIndex, CRAWL_UNIT_SIZE,
};
use crawler::incremental::{
    crawl_detail_unit_validated, discover_listing_validated, fetch_changed_hrefs, ValidatorStore,
};
use honeypot::campaign::{CampaignReport, GuildSnapshot};
use netsim::client::HttpClient;
use netsim::Network;
use obs::{Severity, Span};
use parking_lot::Mutex;
use policy::{AnalysisMemo, DataPractice, TraceabilityReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use store::{
    AuditStore, Backend, ContentHash, DiskBackend, MemBackend, StoreError, StoreStats,
    ValidatorCache,
};
use synth::Ecosystem;

/// Journal frame kind: the merged listing index (phase A). Key 0.
pub const K_LISTING: u16 = 0x0010;
/// Journal frame kind: one detail-page chunk. Key = chunk index.
pub const K_CRAWL_UNIT: u16 = 0x0011;
/// Journal frame kind: one bot's analysis; payload is the 16-byte content
/// address of the artifact. Key = listing index.
pub const K_ANALYSIS: u16 = 0x0012;
/// Journal frame kind: the honeypot campaign report. Key 0.
pub const K_HONEYPOT: u16 = 0x0013;
/// Journal frame kind: run-complete marker. Key 0.
pub const K_COMPLETE: u16 = 0x0014;

/// Where and how a resumable run persists.
#[derive(Clone)]
pub struct StoreConfig {
    /// The storage backend (in-memory for tests, disk for real runs).
    pub backend: Arc<dyn Backend>,
    /// Replay a compatible existing journal instead of starting fresh. The
    /// artifact pack is warm either way — content addressing makes it safe.
    pub resume: bool,
    /// Arm the crash lever: allow this many journal appends, then fail the
    /// run with [`ResumeError::Interrupted`] exactly as if the process died.
    pub kill_after_frames: Option<u64>,
}

impl StoreConfig {
    /// A hermetic in-memory store (fresh run, no kill switch).
    pub fn in_memory() -> StoreConfig {
        StoreConfig {
            backend: Arc::new(MemBackend::new()),
            resume: false,
            kill_after_frames: None,
        }
    }

    /// A disk store rooted at `dir` (fresh run, no kill switch). Creates
    /// the directory if needed.
    pub fn on_disk(dir: impl Into<std::path::PathBuf>) -> std::io::Result<StoreConfig> {
        Ok(StoreConfig {
            backend: Arc::new(DiskBackend::open(dir)?),
            resume: false,
            kill_after_frames: None,
        })
    }

    /// The same store, opened in resume mode.
    pub fn resuming(mut self) -> StoreConfig {
        self.resume = true;
        self
    }

    /// The same store with the crash lever armed after `frames` appends.
    pub fn killing_after(mut self, frames: u64) -> StoreConfig {
        self.kill_after_frames = Some(frames);
        self
    }
}

impl fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreConfig")
            .field("resume", &self.resume)
            .field("kill_after_frames", &self.kill_after_frames)
            .finish_non_exhaustive()
    }
}

/// Why a resumable run did not complete.
#[derive(Debug)]
pub enum ResumeError {
    /// The armed kill switch fired mid-run (the simulated crash). Every
    /// frame written before the crash is durable and will replay.
    Interrupted {
        /// Journal frames durably written before the simulated crash.
        frames_written: u64,
    },
    /// The storage backend failed.
    Store(StoreError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Interrupted { frames_written } => {
                write!(f, "run interrupted after {frames_written} durable frames")
            }
            ResumeError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A completed resumable run.
///
/// Memoization and kernel counters live on the pipeline's obs registry
/// (`analysis.*`, `policy.*`, `code.*`, `store.*`) — read them through
/// [`AuditPipeline::obs`].
#[derive(Debug)]
pub struct ResumableOutcome {
    /// The full report, canonical-identical to an uninterrupted run.
    pub report: AuditReport,
    /// Raw store counters for this handle (journal frames written/replayed,
    /// artifact cache hits/misses).
    pub store_stats: StoreStats,
    /// Every artifact-pack address the completing handle referenced,
    /// sorted and deduplicated — what the fleet's epoch chain records so
    /// generational compaction keeps this run's blobs live.
    pub referenced_keys: Vec<store::ContentHash>,
}

/// The journaled analysis output for one bot: everything [`AuditedBot`]
/// adds on top of the crawl. Stored as a content-addressed artifact so an
/// unchanged bot is never re-analyzed, even across unrelated runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AnalysisArtifact {
    traceability: TraceabilityReport,
    code: Option<CodeFinding>,
}

/// Digest of everything that shapes measurement *content*. Parallelism
/// knobs (`workers`, `honeypot.workers`) are deliberately
/// excluded: output is byte-identical across worker counts, so a journal
/// written at `--workers 8` resumes correctly at `--workers 1`.
pub fn run_fingerprint(config: &AuditConfig, world_seed: u64) -> u64 {
    let c = &config.crawl;
    let h = &config.honeypot;
    let ontology: Vec<String> = DataPractice::ALL
        .iter()
        .map(|p| format!("{p:?}={}", config.ontology.keywords(*p).join(",")))
        .collect();
    let text = format!(
        "platform={}|crawl(max_pages={:?},validate={},policies={},seed={},polite={},host={},\
         unit={})|\
         honeypot(personas={},feed={},seed={},auto_verify={},webhooks={})|\
         sample={}|ontology[{}]",
        c.platform,
        c.max_pages,
        c.validate_invites,
        c.fetch_policies,
        c.seed,
        c.polite,
        c.list_host,
        CRAWL_UNIT_SIZE,
        h.personas_per_guild,
        h.feed_messages,
        h.seed,
        h.auto_verify_personas,
        h.plant_webhook_canaries,
        config.honeypot_sample,
        ontology.join(";"),
    );
    store::fingerprint(&[
        b"audit-store-v1",
        &world_seed.to_le_bytes(),
        text.as_bytes(),
    ])
}

/// The content address of a bot's analysis: the run-config digest plus the
/// bot's full crawled bytes. Any change to the bot (new policy text, new
/// invite outcome) or to the analyzers' configuration moves the address.
fn artifact_key(fingerprint: u64, bot: &CrawledBot) -> ContentHash {
    let bytes = serde_json::to_vec(bot).expect("crawled bot serializes");
    artifact_key_raw(fingerprint, &bytes)
}

/// [`artifact_key`] over an existing `serde_json::to_vec` encoding of the
/// bot. The warm crawl hands these bytes back (cached or freshly written),
/// so keying from them skips a per-bot re-serialization while producing
/// the identical hash a cold run computes from the struct.
fn artifact_key_raw(fingerprint: u64, bot_json: &[u8]) -> ContentHash {
    ContentHash::of_parts(&[b"analysis-v1", &fingerprint.to_le_bytes(), bot_json])
}

/// A crawled bot with the serialized bytes the validated crawl handed back
/// (cache bodies for 304'd bots, fresh serializations for fetched ones), so
/// the analysis stage can hash artifact keys without re-serializing every
/// bot. The cold and replayed paths carry no bytes and the analysis falls
/// back to serializing.
type RawBot = (CrawledBot, Option<Vec<u8>>);

/// Everything the warm crawl path carries: the tenant's journaled
/// validator cache, the set of detail hrefs the site's change ledger names
/// since the cache's committed epoch, and the epoch to commit once the
/// crawl completes. Absent (`None` at the call sites) the pipeline crawls
/// cold — incrementality is a performance overlay, never a correctness
/// dependency.
pub(crate) struct IncrementalContext {
    cache: Arc<ValidatorCache>,
    changed: BTreeSet<String>,
    epoch: u32,
}

/// [`ValidatorStore`] over the journaled [`ValidatorCache`]. Write failures
/// are swallowed: validators are performance state — a lost entry costs an
/// extra full fetch on the next run, never a wrong crawl.
struct CacheStore(Arc<ValidatorCache>);

impl ValidatorStore for CacheStore {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    fn put(&self, key: &str, value: &[u8]) {
        let _ = self.0.put(key, value);
    }
}

/// The content address of one honeypot guild's cached transcript. Keyed on
/// everything that shapes the guild's phase-2 run: the run fingerprint
/// (campaign config, seeds), the bot's RNG-stream index in bot-name order,
/// and the bot's identity — name, rendered invite URL, behaviour class. A
/// behaviour flip or permission-creeped invite moves the address, so a
/// drifted bot can never replay a stale transcript.
fn guild_snapshot_key(
    fingerprint: u64,
    index: usize,
    name: &str,
    invite: &str,
    behavior_class: &str,
) -> ContentHash {
    ContentHash::of_parts(&[
        b"honeypot-guild-v1",
        &fingerprint.to_le_bytes(),
        &(index as u64).to_le_bytes(),
        name.as_bytes(),
        invite.as_bytes(),
        behavior_class.as_bytes(),
    ])
}

fn record(store: &AuditStore, kind: u16, key: u64, payload: Vec<u8>) -> Result<(), ResumeError> {
    store.record_unit(kind, key, payload).map_err(|e| match e {
        StoreError::Interrupted => ResumeError::Interrupted {
            frames_written: store.stats().frames_written,
        },
        other => ResumeError::Store(other),
    })
}

impl AuditPipeline {
    /// Run every stage (crawl → traceability → code → honeypot) against a
    /// mounted world. This is the journaled graph over a throwaway store
    /// ([`AuditStore::throwaway`]): nothing to replay, nothing kept. A
    /// throwaway store holds a single run, so its fingerprint is never
    /// compared and is left at 0.
    pub fn run_full(&self, eco: &Ecosystem) -> AuditReport {
        self.run_with_store(eco, &AuditStore::throwaway(), 0)
            .expect("a throwaway store never fails")
            .report
    }

    /// Run data collection + traceability + code analysis: the static half
    /// of the journaled graph, over a throwaway store.
    ///
    /// Opens a `static` root span on the pipeline's [`Obs`](obs::Obs): a
    /// `crawl` child holds the `listing` (per-page children) and `units`
    /// (per-chunk children) spans, and `analysis` holds one `bot` child per
    /// listing index. Every key is data-derived, so the canonical trace is
    /// byte-identical at any worker count. Memoization and kernel counters
    /// land in the registry under `analysis.*`, `policy.*`, and `code.*`.
    pub fn run_static_stages(&self, net: &Network) -> (Vec<AuditedBot>, CrawlStats) {
        self.run_static(net, &AuditStore::throwaway(), 0, None)
            .expect("a throwaway store never fails")
    }

    /// Run the full pipeline through a crash-safe store.
    ///
    /// Every completed unit is journaled before the next begins; a run
    /// killed at any frame boundary resumes from the journal and finishes
    /// with a canonical report byte-identical to an uninterrupted run. A
    /// fresh run against a warm artifact pack re-crawls but re-analyzes
    /// nothing.
    pub fn run_resumable(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
    ) -> Result<ResumableOutcome, ResumeError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
        let store = AuditStore::open(store_cfg.backend.clone(), fingerprint, store_cfg.resume)
            .map_err(ResumeError::Store)?;
        if let Some(frames) = store_cfg.kill_after_frames {
            store.set_kill_after(frames);
        }
        self.run_with_store(eco, &store, fingerprint)
    }

    /// [`Self::run_resumable`] with the conditional-fetch warm path armed.
    ///
    /// Opens the tenant's validator cache next to the artifact pack, asks
    /// the listing site which bots changed since the cache's committed
    /// epoch, and routes the crawl through the validated variants: an
    /// unchanged page costs one bodyless 304 round-trip, a ledger-named
    /// page is always re-fetched in full. If the change feed is
    /// unreachable or the cache cannot open, the run silently degrades to
    /// the cold path — the report is byte-identical either way.
    pub fn run_incremental(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
        epoch: u32,
    ) -> Result<ResumableOutcome, ResumeError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
        let store = AuditStore::open(store_cfg.backend.clone(), fingerprint, store_cfg.resume)
            .map_err(ResumeError::Store)?;
        if let Some(frames) = store_cfg.kill_after_frames {
            store.set_kill_after(frames);
        }
        let inc = ValidatorCache::open(store_cfg.backend.clone(), fingerprint)
            .ok()
            .map(Arc::new)
            .and_then(|cache| {
                let changed = fetch_changed_hrefs(
                    &eco.net,
                    &self.config.crawl.list_host,
                    cache.epoch(),
                    &self.obs,
                )?;
                Some(IncrementalContext {
                    cache,
                    changed,
                    epoch,
                })
            });
        if inc.is_none() {
            self.obs.event(
                Severity::Warn,
                "crawl.incremental",
                "change feed unavailable — crawling cold",
            );
        }
        self.run_with_store_inner(eco, &store, fingerprint, inc.as_ref())
    }

    /// [`Self::run_resumable`] against an already-open store handle. Tests
    /// use this to crash and resume on one in-memory backend.
    pub fn run_with_store(
        &self,
        eco: &Ecosystem,
        store: &AuditStore,
        fingerprint: u64,
    ) -> Result<ResumableOutcome, ResumeError> {
        self.run_with_store_inner(eco, store, fingerprint, None)
    }

    fn run_with_store_inner(
        &self,
        eco: &Ecosystem,
        store: &AuditStore,
        fingerprint: u64,
        inc: Option<&IncrementalContext>,
    ) -> Result<ResumableOutcome, ResumeError> {
        let (bots, crawl_stats) = self.run_static(&eco.net, store, fingerprint, inc)?;
        let honeypot = self.run_dynamic(eco, store, fingerprint, inc)?;
        if !store.has_unit(K_COMPLETE, 0) {
            record(store, K_COMPLETE, 0, Vec::new())?;
        }

        let store_stats = store.stats();
        self.obs
            .counter("store.journal.frames_written")
            .add(store_stats.frames_written);
        self.obs
            .counter("store.journal.replayed")
            .add(store_stats.frames_replayed);
        self.obs
            .counter("store.artifacts.hits")
            .add(store_stats.artifact_hits);
        self.obs
            .counter("store.artifacts.misses")
            .add(store_stats.artifact_misses);

        Ok(ResumableOutcome {
            report: AuditReport {
                platform: eco.kind,
                bots,
                crawl_stats,
                honeypot: Some(honeypot),
            },
            store_stats,
            referenced_keys: store.referenced_keys(),
        })
    }

    /// The static half of the graph: stage 1 (crawl) and stages 2/3
    /// (traceability + code analysis), under one `static` root span.
    fn run_static(
        &self,
        net: &Network,
        store: &AuditStore,
        fingerprint: u64,
        inc: Option<&IncrementalContext>,
    ) -> Result<(Vec<AuditedBot>, CrawlStats), ResumeError> {
        let root = self.obs.span("static");
        let (crawled, crawl_stats) = self.run_crawl(net, store, inc, &root)?;
        let bots = self.run_analysis(net, store, fingerprint, crawled, &root)?;
        Ok((bots, crawl_stats))
    }

    /// Stage 1: the listing traversal (one journal unit), then the detail
    /// pages in fixed [`CRAWL_UNIT_SIZE`] chunks fanned out to the unit
    /// pool, each chunk journaled as it finishes — so a crash preserves
    /// every *completed* chunk regardless of order.
    fn run_crawl(
        &self,
        net: &Network,
        store: &AuditStore,
        inc: Option<&IncrementalContext>,
        root: &Span,
    ) -> Result<(Vec<RawBot>, CrawlStats), ResumeError> {
        let clock = net.clock();
        let started = clock.now();
        let span = root.child("crawl");

        let listing: ListingIndex = match store.lookup_unit(K_LISTING, 0) {
            Some(bytes) => {
                self.obs
                    .event(Severity::Info, "store.journal", "listing replayed");
                span.child("listing").record("replayed", 1);
                serde_json::from_slice(bytes).expect("listing frame decodes")
            }
            // With the validator cache armed, the cache itself is the
            // crash-safe carrier for crawl state: a resumed run replays
            // validators and 304s its way back in less time than the
            // journal frame costs to serialize, so the crawl stages
            // journal nothing.
            None => match inc {
                Some(ctx) => discover_listing_validated(
                    net,
                    &self.config.crawl,
                    &CacheStore(ctx.cache.clone()),
                    &self.obs,
                    &span,
                ),
                None => {
                    let listing =
                        discover_listing_traced(net, &self.config.crawl, &self.obs, &span);
                    let bytes = serde_json::to_vec(&listing).expect("listing serializes");
                    record(store, K_LISTING, 0, bytes)?;
                    listing
                }
            },
        };

        let chunks: Vec<&[String]> = listing.hrefs.chunks(CRAWL_UNIT_SIZE).collect();
        let units_span = span.child("units");
        let (units, raws): (Vec<_>, Vec<_>) = self
            .run_unit_pool(chunks.len(), |unit| {
                if let Some(bytes) = store.lookup_unit(K_CRAWL_UNIT, unit as u64) {
                    units_span
                        .child_keyed("unit", unit as u64)
                        .record("replayed", 1);
                    let decoded: DetailUnit =
                        serde_json::from_slice(bytes).expect("crawl unit frame decodes");
                    return Ok((decoded, Vec::new()));
                }
                match inc {
                    Some(ctx) => Ok(crawl_detail_unit_validated(
                        net,
                        &self.config.crawl,
                        chunks[unit],
                        unit as u64,
                        &CacheStore(ctx.cache.clone()),
                        &ctx.changed,
                        &self.obs,
                        &units_span,
                    )),
                    None => {
                        let out = crawl_detail_unit_traced(
                            net,
                            &self.config.crawl,
                            chunks[unit],
                            unit as u64,
                            &self.obs,
                            &units_span,
                        );
                        let bytes = serde_json::to_vec(&out).expect("crawl unit serializes");
                        record(store, K_CRAWL_UNIT, unit as u64, bytes)?;
                        Ok((out, Vec::new()))
                    }
                }
            })?
            .into_iter()
            .unzip();
        drop(units_span);

        let mut crawl_stats = CrawlStats::of(&listing, &units);
        let mut crawled = Vec::with_capacity(crawl_stats.bots);
        for (unit, raw) in units.into_iter().zip(raws) {
            let raw = raw.into_iter().chain(std::iter::repeat_with(|| None));
            crawled.extend(
                unit.results
                    .into_iter()
                    .zip(raw)
                    .filter_map(|(result, bytes)| Some((result?, bytes))),
            );
        }

        // The crawl is complete: every validator entry now reflects this
        // epoch's content, so advance the cache's committed epoch. A crash
        // before this line leaves the older epoch on disk — the next run's
        // changed set is then a superset of the truth, which costs extra
        // fetches but can never reuse stale bytes.
        if let Some(ctx) = inc {
            if let Err(e) = ctx.cache.commit_epoch(ctx.epoch) {
                self.obs.event(
                    Severity::Warn,
                    "store.validators",
                    format!("epoch commit failed: {e}"),
                );
            }
            let vstats = ctx.cache.stats();
            self.obs
                .counter("store.validators.entries")
                .add(vstats.entries);
            self.obs
                .counter("store.validators.replayed")
                .add(vstats.replayed);
            if vstats.reset {
                self.obs.counter("store.validators.reset").incr();
            }
        }
        crawl_stats.duration = clock.now().duration_since(started);
        Ok((crawled, crawl_stats))
    }

    /// Stages 2/3: per-bot analysis through the artifact cache, one unit
    /// per listing index on the unit pool.
    fn run_analysis(
        &self,
        net: &Network,
        store: &AuditStore,
        fingerprint: u64,
        crawled: Vec<RawBot>,
        root: &Span,
    ) -> Result<Vec<AuditedBot>, ResumeError> {
        let policy_before = self.config.ontology.kernel_stats();
        let code_before = codeanal::scanner_kernel_stats();
        let links = LinkCache::new();
        let memo = AnalysisMemo::new();

        let jobs: Vec<Mutex<Option<RawBot>>> = crawled
            .into_iter()
            .map(|job| Mutex::new(Some(job)))
            .collect();
        let gh_clients: Mutex<Vec<HttpClient>> = Mutex::new(Vec::new());
        let analysis_span = root.child("analysis");
        let bots = self.run_unit_pool(jobs.len(), |idx| {
            let bot_span = analysis_span.child_keyed("bot", idx as u64);
            let (bot, raw) = jobs[idx].lock().take().expect("job claimed once");
            let replayed = store.lookup_unit(K_ANALYSIS, idx as u64);
            let key = match replayed {
                Some(payload) => ContentHash::from_bytes(payload)
                    .expect("analysis frame payload is a content hash"),
                None => match raw.as_deref() {
                    Some(bytes) => artifact_key_raw(fingerprint, bytes),
                    None => artifact_key(fingerprint, &bot),
                },
            };
            let artifact: AnalysisArtifact = match store.artifact_get(&key) {
                Some(blob) => {
                    bot_span.record("artifact_hit", 1);
                    serde_json::from_slice(&blob).expect("analysis artifact decodes")
                }
                None => {
                    // Workers keep their clients across claims (pop/push
                    // around the analysis) so politeness state persists
                    // from one bot to the next.
                    let mut gh_client = gh_clients
                        .lock()
                        .pop()
                        .unwrap_or_else(|| self.analysis_client(net));
                    let (traceability, code) =
                        self.analyze_one(&bot, &mut gh_client, &links, &memo);
                    gh_clients.lock().push(gh_client);
                    let artifact = AnalysisArtifact { traceability, code };
                    let blob = serde_json::to_vec(&artifact).expect("artifact serializes");
                    store.artifact_put(key, &blob).map_err(ResumeError::Store)?;
                    artifact
                }
            };
            if replayed.is_none() {
                record(store, K_ANALYSIS, idx as u64, key.0.to_vec())?;
            }
            let audited = AuditedBot {
                crawled: bot,
                traceability: artifact.traceability,
                code: artifact.code,
            };
            crate::pipeline::trace_audited(&bot_span, &audited);
            Ok(audited)
        })?;
        drop(analysis_span);
        self.publish_analysis_metrics(&links, &memo, policy_before, code_before);
        Ok(bots)
    }

    /// The dynamic half of the graph: stage 4, the honeypot campaign (one
    /// journal unit), under its own `dynamic` root span.
    fn run_dynamic(
        &self,
        eco: &Ecosystem,
        store: &AuditStore,
        fingerprint: u64,
        inc: Option<&IncrementalContext>,
    ) -> Result<CampaignReport, ResumeError> {
        if let Some(bytes) = store.lookup_unit(K_HONEYPOT, 0) {
            self.obs
                .event(Severity::Info, "store.journal", "honeypot replayed");
            return Ok(serde_json::from_slice(bytes).expect("honeypot frame decodes"));
        }
        let report = match inc {
            Some(_) => self.run_honeypot_reusing(eco, store, fingerprint),
            None => self.run_honeypot(eco),
        };
        let bytes = serde_json::to_vec(&report).expect("campaign serializes");
        record(store, K_HONEYPOT, 0, bytes)?;
        Ok(report)
    }

    /// Drift-aware honeypot stage: guild transcripts live in the artifact
    /// pack under [`guild_snapshot_key`] addresses, so a re-audit re-drives
    /// only the guilds whose bot identity (name, invite, behaviour class)
    /// moved — every other guild's transcript is replayed from the pack.
    /// Snapshot lookups use [`AuditStore::artifact_peek`] and report on
    /// `honeypot.guilds_reused`, keeping the artifact hit/miss counters an
    /// exact census of per-bot analyses.
    fn run_honeypot_reusing(
        &self,
        eco: &Ecosystem,
        store: &AuditStore,
        fingerprint: u64,
    ) -> CampaignReport {
        let sample = self.honeypot_identities(eco);
        // The RNG-stream selector is the bot's position in bot-name order —
        // the same index the campaign assigns after sorting its jobs.
        let mut names: Vec<&str> = sample.iter().map(|(name, _, _)| name.as_str()).collect();
        names.sort_unstable();
        let keyed: Vec<(String, ContentHash)> = sample
            .iter()
            .map(|(name, invite, class)| {
                let index = names
                    .binary_search(&name.as_str())
                    .expect("sampled bot is in its own name list");
                (
                    name.clone(),
                    guild_snapshot_key(fingerprint, index, name, invite, class),
                )
            })
            .collect();
        let mut reuse: BTreeMap<String, GuildSnapshot> = BTreeMap::new();
        for (name, key) in &keyed {
            if let Some(snap) = store
                .artifact_peek(key)
                .and_then(|blob| serde_json::from_slice::<GuildSnapshot>(&blob).ok())
            {
                reuse.insert(name.clone(), snap);
            }
        }
        self.obs
            .counter("honeypot.guilds_reused")
            .add(reuse.len() as u64);

        let (report, snapshots) = self.run_honeypot_with_reuse(eco, &reuse);

        // Persist this epoch's transcripts for the next re-audit. Failures
        // are swallowed — snapshots are performance state.
        let key_of: BTreeMap<&String, &ContentHash> =
            keyed.iter().map(|(name, key)| (name, key)).collect();
        for snap in &snapshots {
            if let Some(key) = key_of.get(&snap.bot_name) {
                if let Ok(blob) = serde_json::to_vec(snap) {
                    let _ = store.artifact_put(**key, &blob);
                }
            }
        }
        report
    }

    /// Claim-counter pool over `count` indexed units. Results land in their
    /// unit's slot, so output order is scheduling-independent. The first
    /// error (interrupt or backend failure) stops all workers from claiming
    /// further units and is returned; completed units' journal frames are
    /// already durable.
    fn run_unit_pool<T, F>(&self, count: usize, work: F) -> Result<Vec<T>, ResumeError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, ResumeError> + Sync,
        Self: Sync,
    {
        let workers = resolve_workers(self.config.workers).min(count.max(1));
        if workers <= 1 || count <= 1 {
            return (0..count).map(&work).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let dead = AtomicBool::new(false);
        let first_error: Mutex<Option<ResumeError>> = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (slots, next, dead, first_error) = (&slots, &next, &dead, &first_error);
                let work = &work;
                s.spawn(move || loop {
                    if dead.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= count {
                        break;
                    }
                    match work(idx) {
                        Ok(out) => *slots[idx].lock() = Some(out),
                        Err(e) => {
                            dead.store(true, Ordering::Relaxed);
                            let mut guard = first_error.lock();
                            if guard.is_none() {
                                *guard = Some(e);
                            }
                            break;
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every unit slot filled"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::{build_ecosystem, EcosystemConfig};

    fn world() -> Ecosystem {
        build_ecosystem(&EcosystemConfig::test_scale(90, 13))
    }

    fn pipeline() -> AuditPipeline {
        AuditPipeline::new(AuditConfig {
            honeypot_sample: 10,
            ..AuditConfig::default()
        })
    }

    #[test]
    fn uninterrupted_resumable_matches_plain_run() {
        let eco = world();
        let plain = pipeline().run_full(&eco).canonical_json();

        let eco = world();
        let outcome = pipeline()
            .run_resumable(&eco, &StoreConfig::in_memory(), 13)
            .unwrap();
        assert_eq!(outcome.report.canonical_json(), plain);
        assert!(outcome.store_stats.frames_written > 0);
        assert_eq!(outcome.store_stats.frames_replayed, 0);
        assert_eq!(outcome.store_stats.artifact_hits, 0);
        assert_eq!(outcome.store_stats.artifact_misses, 90);
    }

    #[test]
    fn kill_switch_surfaces_interrupted() {
        let eco = world();
        let cfg = StoreConfig::in_memory().killing_after(3);
        let err = pipeline().run_resumable(&eco, &cfg, 13).unwrap_err();
        match err {
            ResumeError::Interrupted { frames_written } => assert_eq!(frames_written, 3),
            other => panic!("expected interrupt, got {other}"),
        }
    }

    #[test]
    fn crash_then_resume_replays_and_completes() {
        let eco = world();
        let uninterrupted = pipeline()
            .run_resumable(&eco, &StoreConfig::in_memory(), 13)
            .unwrap();

        let eco = world();
        let cfg = StoreConfig::in_memory().killing_after(20);
        pipeline().run_resumable(&eco, &cfg, 13).unwrap_err();

        let eco = world();
        let resumed = pipeline()
            .run_resumable(
                &eco,
                &StoreConfig {
                    kill_after_frames: None,
                    ..cfg.resuming()
                },
                13,
            )
            .unwrap();
        assert_eq!(
            resumed.report.canonical_json(),
            uninterrupted.report.canonical_json(),
            "resumed run must be byte-identical"
        );
        assert!(resumed.store_stats.frames_replayed >= 20);
        assert!(
            resumed.store_stats.artifact_misses < 90,
            "resume must reuse analyses journaled before the crash"
        );
    }

    #[test]
    fn warm_pack_fresh_run_reanalyzes_nothing() {
        let eco = world();
        let cfg = StoreConfig::in_memory();
        let cold = pipeline().run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(cold.store_stats.artifact_misses, 90);

        // Fresh journal, warm pack: full re-crawl, zero re-analysis.
        let eco = world();
        let warm_pipeline = pipeline();
        let warm = warm_pipeline.run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(warm.store_stats.artifact_hits, 90);
        assert_eq!(warm.store_stats.artifact_misses, 0);
        // The policy kernel counter is per-ontology-instance (mirrored into
        // this pipeline's obs registry), so it cleanly proves no analyzer
        // ran. (The code kernel counter is process-wide and other tests race
        // it; the artifact counters above cover it.)
        assert_eq!(
            warm_pipeline.obs().counter_value("policy.scan_passes"),
            0,
            "no keyword scans on a warm pack"
        );
        assert_eq!(warm.report.canonical_json(), cold.report.canonical_json());
    }

    #[test]
    fn fingerprint_tracks_content_not_workers() {
        let base = AuditConfig::default();
        let seed_a = run_fingerprint(&base, 1);
        assert_eq!(seed_a, run_fingerprint(&base, 1), "stable");
        assert_ne!(seed_a, run_fingerprint(&base, 2), "world seed matters");

        let mut workers = base.clone();
        workers.workers = 8;
        workers.honeypot.workers = 8;
        assert_eq!(
            seed_a,
            run_fingerprint(&workers, 1),
            "workers knobs excluded"
        );

        let mut sample = base.clone();
        sample.honeypot_sample = 99;
        assert_ne!(seed_a, run_fingerprint(&sample, 1), "sample size matters");
    }
}
