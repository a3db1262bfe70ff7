//! Driving `FleetDaemon` from outside: settle-driven `tick()` plus clock
//! advance (no idle horizon), wall-clock submit→settle per job, and the
//! per-layer readings both fleet workloads share — the timed store
//! wrapper, the daemon's own counters, and idle-tick cost.

use crate::report::{ratio, Outcome, Samples};
use crate::trace::{StoreStats, TimedBackend, Tracer};
use chatbot_audit::{AuditJob, FleetDaemon, FleetDaemonConfig, JobHandle, JobOutcome};
use netsim::{SimDuration, VirtualClock};
use obs::{Clock, Obs};
use sched::JobSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use store::Backend;

/// A settled job with its wall-clock submit→settle latency.
pub struct Settled {
    pub outcome: JobOutcome,
    pub latency_ms: f64,
    pub lane: &'static str,
}

/// A daemon under measurement. One `Obs` registry is shared by the daemon
/// and every audit submitted through it, so layer counters aggregate.
pub struct Probe {
    pub daemon: FleetDaemon,
    pub obs: Obs,
    pub store: Option<Arc<StoreStats>>,
    tick_ms: u64,
    inflight: BTreeMap<JobHandle, (Instant, &'static str)>,
    pub ticks: u64,
    pub tick_wall_ms: f64,
}

impl Probe {
    /// A daemon over `root`, wrapped in the timing backend when `traced`.
    pub fn new(config: FleetDaemonConfig, root: Arc<dyn Backend>, traced: bool) -> Probe {
        let (root, store): (Arc<dyn Backend>, _) = if traced {
            let timed = TimedBackend::new(root);
            let stats = Arc::clone(&timed.stats);
            (Arc::new(timed), Some(stats))
        } else {
            (root, None)
        };
        let obs = Obs::disabled();
        Probe {
            daemon: FleetDaemon::with_obs(config, root, VirtualClock::new(), obs.clone()),
            obs,
            store,
            tick_ms: config.tick_ms.max(1),
            inflight: BTreeMap::new(),
            ticks: 0,
            tick_wall_ms: 0.0,
        }
    }

    pub fn now_ms(&self) -> u64 {
        self.daemon.clock().now_millis()
    }

    pub fn advance_to(&self, at_ms: u64) {
        let now = self.now_ms();
        if at_ms > now {
            self.daemon
                .clock()
                .advance(SimDuration::from_millis(at_ms - now));
        }
    }

    pub fn submit(&mut self, spec: JobSpec, job: AuditJob) -> Result<(), String> {
        let lane = spec.lane.as_str();
        let handle = self.daemon.submit(spec, job).map_err(|e| e.to_string())?;
        self.inflight.insert(handle, (Instant::now(), lane));
        Ok(())
    }

    /// One scheduler round, timed, returning the jobs it settled.
    pub fn tick(&mut self, tracer: &Tracer, req: u64) -> Vec<Settled> {
        let (handles, ms) = tracer.span("sched.tick", req, || self.daemon.tick());
        let settled_at = Instant::now();
        self.ticks += 1;
        self.tick_wall_ms += ms;
        handles
            .into_iter()
            .filter_map(|h| {
                let (submitted, lane) = self.inflight.remove(&h)?;
                let outcome = self.daemon.resolve(h)?;
                Some(Settled {
                    outcome,
                    latency_ms: settled_at.duration_since(submitted).as_secs_f64() * 1e3,
                    lane,
                })
            })
            .collect()
    }

    /// Tick, then advance the clock one tick step, until the clock reaches
    /// `until_ms` or nothing is queued — never ticking an idle daemon.
    pub fn run_busy(&mut self, until_ms: Option<u64>, tracer: &Tracer, req: u64) -> Vec<Settled> {
        let mut settled = Vec::new();
        while self.daemon.queued() > 0 && until_ms.is_none_or(|t| self.now_ms() < t) {
            settled.extend(self.tick(tracer, req));
            let step = match until_ms {
                Some(t) => self.tick_ms.min(t.saturating_sub(self.now_ms())),
                None => self.tick_ms,
            };
            self.daemon
                .clock()
                .advance(SimDuration::from_millis(step.max(1)));
        }
        settled
    }

    /// Median wall time of `n` ticks of this (now idle) daemon, in µs.
    pub fn idle_tick_us_p50(&self, n: usize) -> f64 {
        let mut times = Samples::default();
        for _ in 0..n {
            let t = Instant::now();
            let settled = self.daemon.tick();
            times.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(settled.is_empty(), "idle ticks settle nothing");
            self.daemon
                .clock()
                .advance(SimDuration::from_millis(self.tick_ms));
        }
        times.p50()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.obs.counter_value(name)
    }
}

/// Per-layer totals gathered over every traced daemon of one run.
#[derive(Default)]
pub struct DaemonLayers {
    pub completed: u64,
    pub counters: BTreeMap<&'static str, u64>,
    pub store: [(u64, u64, f64); 3],
    pub store_ms: f64,
    pub ticks: u64,
    pub tick_wall_ms: f64,
    pub max_gap: u64,
    pub wait_virtual: Samples,
    pub idle_tick_us: Samples,
    pub pack_hits: u64,
    pub pack_lookups: u64,
}

/// Registry counters the layer table reads.
const COUNTERS: [&str; 17] = [
    "crawl.validated",
    "crawl.fetched_full",
    "crawl.validator_hits",
    "crawl.bytes_saved",
    "policy.bytes_scanned",
    "code.bytes_scanned",
    "analysis.policy_memo.hits",
    "analysis.policy_memo.misses",
    "analysis.link_cache.hits",
    "analysis.link_cache.misses",
    "honeypot.guilds_created",
    "honeypot.guilds_reused",
    "store.journal.frames_written",
    "store.journal.replayed",
    "sched.parked",
    "sched.expired",
    "oplog.appended",
];

impl DaemonLayers {
    /// Fold in one settled job.
    pub fn record(&mut self, s: &Settled) {
        if s.outcome.report.is_ok() {
            self.completed += 1;
            self.wait_virtual.push(s.outcome.wait_ms as f64);
            self.pack_hits += s.outcome.artifact_hits;
            self.pack_lookups += s.outcome.artifact_hits + s.outcome.artifact_misses;
        }
    }

    /// Fold in one finished (idle) daemon's readings.
    pub fn absorb(&mut self, probe: &Probe) {
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += probe.counter(name);
        }
        if let Some(s) = &probe.store {
            for (slot, op) in self
                .store
                .iter_mut()
                .zip([&s.append, &s.read, &s.write_atomic])
            {
                slot.0 += op.count();
                slot.1 += op.bytes();
                slot.2 += op.ms();
            }
            self.store_ms += s.total_ms();
        }
        self.ticks += probe.ticks;
        self.tick_wall_ms += probe.tick_wall_ms;
        self.max_gap = self.max_gap.max(probe.daemon.fairness_gap());
        self.idle_tick_us.push(probe.idle_tick_us_p50(IDLE_TICKS));
    }

    fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Set every per-layer metric the daemon exposes, per completed audit
    /// for counts and bytes.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.completed.max(1) as f64;
        let c = |name| self.count(name);
        out.set("synth.builds", (n + c("sched.parked")) / n, "count");
        for name in [
            "crawl.validated",
            "crawl.fetched_full",
            "crawl.validator_hits",
        ] {
            out.set(name, c(name) / n, "count");
        }
        out.set("crawl.bytes_saved", c("crawl.bytes_saved") / n, "bytes");
        out.set(
            "crawler.validator_hit_ratio",
            ratio(c("crawl.validator_hits"), c("crawl.validated")),
            "ratio",
        );
        out.set(
            "policy.bytes_scanned",
            c("policy.bytes_scanned") / n,
            "bytes",
        );
        out.set(
            "policy.memo_hit_ratio",
            ratio(
                c("analysis.policy_memo.hits"),
                c("analysis.policy_memo.hits") + c("analysis.policy_memo.misses"),
            ),
            "ratio",
        );
        out.set("code.bytes_scanned", c("code.bytes_scanned") / n, "bytes");
        out.set(
            "codeanal.link_cache_hit_ratio",
            ratio(
                c("analysis.link_cache.hits"),
                c("analysis.link_cache.hits") + c("analysis.link_cache.misses"),
            ),
            "ratio",
        );
        out.set("honeypot.guilds", c("honeypot.guilds_created") / n, "count");
        out.set(
            "honeypot.guilds_reused",
            c("honeypot.guilds_reused") / n,
            "count",
        );
        let ops = [
            (
                "store.append_ms",
                "store.append_count",
                "store.append_bytes",
            ),
            ("store.read_ms", "store.read_count", "store.read_bytes"),
            (
                "store.write_atomic_ms",
                "store.write_atomic_count",
                "store.write_atomic_bytes",
            ),
        ];
        for ((ms, count, bytes), (calls, b, t)) in ops.into_iter().zip(self.store) {
            out.set(ms, t / n, "ms");
            out.set(count, calls as f64 / n, "count");
            out.set(bytes, b as f64 / n, "bytes");
        }
        let written = c("store.journal.frames_written");
        let replayed = c("store.journal.replayed");
        out.set("store.frames_written", written / n, "count");
        out.set("store.frames_replayed", replayed / n, "count");
        out.set(
            "store.pack_hit_ratio",
            ratio(self.pack_hits as f64, self.pack_lookups as f64),
            "ratio",
        );
        out.set("store.replay_ratio", ratio(replayed, written), "ratio");
        out.set("sched.ticks", self.ticks as f64 / n, "count");
        out.set(
            "sched.tick_ms",
            ratio(self.tick_wall_ms, self.ticks as f64),
            "ms",
        );
        out.set("sched.idle_tick_us_p50", self.idle_tick_us.p50(), "us");
        out.set("sched.parked", c("sched.parked") / n, "count");
        out.set("sched.expired", c("sched.expired") / n, "count");
        out.set("sched.drr.max_gap", self.max_gap as f64, "count");
        out.set("sched.wait_virtual_ms_p50", self.wait_virtual.p50(), "ms");
        out.set("oplog.appended", c("oplog.appended") / n, "count");
    }
}

/// Idle ticks timed after each traced daemon drains.
const IDLE_TICKS: usize = 500;

/// Layers that run inside `FleetDaemon::tick` and cannot be split from
/// outside the program; their time is reported as unattributed.
pub const INSIDE_TICK: &str = "synth, botlist, html, crawler, policy, codeanal, honeypot, sched";
