//! `fleet_reaudit`: the operator's recurring job. `TENANTS` tenants
//! (Discord and Telegram alternating) re-audit their drifting worlds for
//! `EPOCHS` epochs on a `DiskBackend` in a fresh directory, Standard lane.
//! Each epoch every tenant submits one job and the benchmark ticks until all
//! settle; a dashboard then reads `history` and `trends` per tenant plus
//! `fleet_trends`; every `COMPACT_EVERY` epochs each tenant's pack is
//! compacted to its last two generations. Every report is checked byte for
//! byte against a cold audit of the same world and epoch. Whole scenarios
//! repeat on the same seeded worlds until the run's time is up, so each
//! cold reference is computed once per run.

use crate::probe::{DaemonLayers, Probe, INSIDE_TICK};
use crate::report::{cpu_ms, digest, ms_since, nproc, Outcome, Samples};
use crate::trace::Tracer;
use crate::{report_audits, set_tail, set_up, Args, Cpu, Meter, WARMUP_SEED};
use chatbot_audit::{Audit, AuditJob, FleetDaemonConfig, PlatformKind};
use sched::JobSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use synth::{build_ecosystem_at, DriftConfig};

/// Listings per tenant world.
pub const SCALE: usize = 1000;
pub const TENANTS: usize = 2;
pub const EPOCHS: u32 = 8;
const COMPACT_EVERY: u32 = 3;
const KEEP_LAST: usize = 2;
/// World size and epochs of the set-up's warm-up scenario.
const WARMUP: (usize, u32) = (100, 2);
/// Where scenario stores live, relative to the checkout root.
const WORK_DIR: &str = ".bench_work/fleet";

fn platform(t: usize) -> PlatformKind {
    if t.is_multiple_of(2) {
        PlatformKind::Discord
    } else {
        PlatformKind::Telegram
    }
}

fn builder(scale: usize, seed: u64, t: usize, epoch: u32) -> chatbot_audit::AuditBuilder {
    Audit::builder()
        .scale(scale)
        .seed(seed.wrapping_mul(31).wrapping_add(t as u64))
        .platform(platform(t))
        .drift(DriftConfig::default())
        .epoch(epoch)
}

fn job(scale: usize, seed: u64, t: usize, epoch: u32, probe: &Probe) -> AuditJob {
    builder(scale, seed, t, epoch)
        .obs(probe.obs.clone())
        .into_job()
        .expect("fleet job configuration is valid")
}

/// Per tenant, the number of bots the drift model moved crawl-visibly at
/// each epoch (index 0 unused): what a warm epoch must re-analyze.
fn drift_ledger(scale: usize, seed: u64, epochs: u32) -> Vec<Vec<usize>> {
    (0..TENANTS)
        .map(|t| {
            let audit = builder(scale, seed, t, 0).build().expect("valid");
            let last = epochs.saturating_sub(1).max(1);
            let (_, ledger) =
                build_ecosystem_at(audit.ecosystem_config(), &DriftConfig::default(), last);
            let mut moved = vec![0; epochs as usize];
            for e in ledger {
                if (e.epoch as usize) < moved.len() {
                    moved[e.epoch as usize] = e.content_drifted().len();
                }
            }
            moved
        })
        .collect()
}

/// Digests of cold reference reports, by tenant and then epoch.
pub type References = Vec<Vec<Result<u64, String>>>;

/// Cold from-scratch audits of every tenant world at every epoch, each the
/// first and only job of its own tenant on a fresh daemon over an empty
/// store. (A fresh daemon rather than `Audit::run()`: on Telegram worlds
/// with the listing site's defenses on, the standalone crawl loses most
/// detail pages that the fleet's crawl fetches — see `perfbench/README.md`.)
/// One epoch at a time, as the scenario runs them, so holding the reports
/// costs no more memory than the scenario itself.
fn cold_references(scale: usize, epochs: u32, seed: u64) -> References {
    let config = FleetDaemonConfig {
        workers: nproc(),
        ..FleetDaemonConfig::default()
    };
    let mut refs: References = vec![Vec::new(); TENANTS];
    for epoch in 0..epochs {
        let mut fresh = Probe::new(config, Arc::new(store::MemBackend::new()), false);
        let mut digests: Vec<Result<u64, String>> = vec![Err("not settled".into()); TENANTS];
        for (t, d) in digests.iter_mut().enumerate() {
            let job = job(scale, seed, t, epoch, &fresh);
            if let Err(e) = fresh.submit(JobSpec::new(tenant(t)), job) {
                *d = Err(e);
            }
        }
        for done in fresh.run_busy(None, &Tracer::new(false), 0) {
            let o = &done.outcome;
            if let Some(t) = (0..TENANTS).find(|&t| o.tenant == tenant(t)) {
                digests[t] = o.report.as_ref().map(digest).map_err(|e| e.to_string());
            }
        }
        for (t, d) in digests.into_iter().enumerate() {
            refs[t].push(d);
        }
    }
    refs
}

/// An incremental re-audit must match the cold audit of the same world and
/// epoch byte for byte, whatever it took from the validator cache and the
/// warm pack.
fn check_against_cold(
    refs: &References,
    t: usize,
    epoch: u32,
    report: &chatbot_audit::CanonicalReport,
) -> Result<(), String> {
    match &refs[t][epoch as usize] {
        Ok(d) if *d == digest(report) => Ok(()),
        Ok(_) => Err(format!(
            "tenant {t} epoch {epoch}: report differs from a cold audit of the same world"
        )),
        Err(e) => Err(format!("tenant {t} epoch {epoch}: reference audit: {e}")),
    }
}

fn tenant(t: usize) -> String {
    format!("tenant-{t}")
}

/// What one scenario measured.
#[derive(Default)]
struct Scenario {
    latency: Samples,
    epoch_ms: Vec<f64>,
    trend_ms: Samples,
    history_ms: Samples,
    trends_ms: Samples,
    fleet_ms: Samples,
    compact_ms: Samples,
    query_bytes: u64,
    query_store_ms: f64,
    /// Listings per wall second of each epoch: its audits, dashboard and
    /// compaction.
    throughput: Samples,
    /// Raw and normalized CPU ms, and listings, of each epoch's audits,
    /// dashboard and compaction, gates excluded.
    cpu: Vec<(f64, f64, usize)>,
    busy_ms: f64,
    store_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn trend_dump(probe: &Probe) -> Result<String, String> {
    let mut dump = String::new();
    for t in 0..TENANTS {
        let q = probe.daemon.trends(&tenant(t)).map_err(|e| e.to_string())?;
        dump.push_str(&q.canonical_json());
    }
    let fleet = probe.daemon.fleet_trends().map_err(|e| e.to_string())?;
    dump.push_str(&serde_json::to_string(&fleet).map_err(|e| e.to_string())?);
    Ok(dump)
}

/// Run one scenario in a fresh store directory with `workers` daemon
/// workers; gates go to `out`.
#[allow(clippy::too_many_arguments)]
fn scenario(
    dir: &Path,
    workers: usize,
    scale: usize,
    epochs: u32,
    seed: u64,
    refs: &References,
    traced: Option<(&Tracer, &mut DaemonLayers)>,
    out: &mut Outcome,
) -> Scenario {
    let _ = std::fs::remove_dir_all(dir);
    let disk = store::DiskBackend::open(dir).expect("store directory is writable");
    let ledger = drift_ledger(scale, seed, epochs);
    let config = FleetDaemonConfig {
        workers,
        ..FleetDaemonConfig::default()
    };
    let off = Tracer::new(false);
    let (tracer, mut layers) = match traced {
        Some((t, l)) => (t, Some(l)),
        None => (&off, None),
    };
    let mut probe = Probe::new(config, Arc::new(disk), layers.is_some());
    let mut s = Scenario::default();
    let store_ms = |p: &Probe| p.store.as_ref().map_or(0.0, |st| st.total_ms());
    let store_read = |p: &Probe| p.store.as_ref().map_or(0, |st| st.read.bytes());

    let mut meter = Meter::start();
    for epoch in 0..epochs {
        let req = u64::from(epoch);
        let t0 = Instant::now();
        let mut gate_cpu = 0.0;
        for t in 0..TENANTS {
            let submitted =
                probe.submit(JobSpec::new(tenant(t)), job(scale, seed, t, epoch, &probe));
            if let Err(e) = submitted {
                out.check(Err(format!(
                    "epoch {epoch} tenant {t}: submit refused: {e}"
                )));
            }
        }
        let settled = probe.run_busy(None, tracer, req);
        let mut busy_ms = ms_since(t0);
        s.epoch_ms.push(busy_ms);
        let mut bots = 0;
        for done in settled {
            s.latency.push(done.latency_ms);
            let t: usize = done.outcome.tenant["tenant-".len()..]
                .parse()
                .expect("our tenant names");
            let o = &done.outcome;
            out.check(match &o.report {
                Ok(report) => {
                    bots += report.bots.len();
                    let misses = o.artifact_misses as usize;
                    let lookups = misses + o.artifact_hits as usize;
                    let moved = ledger[t][epoch as usize];
                    let diffed = o.delta.as_ref().map_or(0, |d| d.drifted.len());
                    // Every bot is looked up once; only a drifted bot may
                    // miss the pack, and at epoch 1 (no older generation to
                    // hit) every drifted bot does. Telegram's admin-right
                    // flags absorb some permission creep the shared ledger
                    // marks crawl-visible, so there the ledger is an upper
                    // bound on what the re-audit sees drift.
                    let ledger_ok = match platform(t) {
                        PlatformKind::Discord => diffed == moved,
                        PlatformKind::Telegram => diffed <= moved,
                    };
                    let misses_ok = if epoch == 1 {
                        misses == diffed
                    } else {
                        misses <= diffed
                    };
                    if lookups != report.bots.len() {
                        Err(format!(
                            "tenant {t} epoch {epoch}: {lookups} pack lookups for {} bots",
                            report.bots.len()
                        ))
                    } else if epoch == 0 && misses < scale {
                        Err(format!(
                            "cold epoch of tenant {t} analyzed only {misses} bots"
                        ))
                    } else if epoch > 0 && !(ledger_ok && misses_ok) {
                        Err(format!(
                            "tenant {t} epoch {epoch}: {misses} artifact misses, {diffed} bots \
                             drifted in the delta report, {moved} in the drift ledger"
                        ))
                    } else {
                        let c = cpu_ms();
                        let same = check_against_cold(refs, t, epoch, report);
                        gate_cpu += cpu_ms() - c;
                        same
                    }
                }
                Err(e) => Err(format!("tenant {t} epoch {epoch}: {e}")),
            });
            if let Some(layers) = layers.as_deref_mut() {
                layers.record(&done);
            }
        }

        // The dashboard.
        let (before_ms, before_bytes) = (store_ms(&probe), store_read(&probe));
        for t in 0..TENANTS {
            let name = tenant(t);
            let (h, ms) = tracer.span("oplog.history", req, || probe.daemon.history(&name));
            s.history_ms.push(ms);
            s.trend_ms.push(ms);
            let (q, ms2) = tracer.span("oplog.trends", req, || probe.daemon.trends(&name));
            s.trends_ms.push(ms2);
            s.trend_ms.push(ms2);
            busy_ms += ms + ms2;
            out.check(match (h, q) {
                (Ok(h), Ok(q)) if h.len() == epoch as usize + 1 && q.epochs().len() == h.len() => {
                    Ok(())
                }
                (Ok(h), Ok(_)) => Err(format!(
                    "tenant {t}: {} epochs in history after {}",
                    h.len(),
                    epoch + 1
                )),
                (Err(e), _) | (_, Err(e)) => Err(format!("tenant {t} dashboard: {e}")),
            });
        }
        let (f, ms) = tracer.span("oplog.fleet_trends", req, || probe.daemon.fleet_trends());
        s.fleet_ms.push(ms);
        s.trend_ms.push(ms);
        busy_ms += ms;
        out.check(f.map(|_| ()).map_err(|e| format!("fleet trends: {e}")));
        s.query_bytes += store_read(&probe) - before_bytes;
        s.query_store_ms += store_ms(&probe) - before_ms;

        if (epoch + 1) % COMPACT_EVERY == 0 {
            let c = cpu_ms();
            let before = trend_dump(&probe);
            gate_cpu += cpu_ms() - c;
            for t in 0..TENANTS {
                let name = tenant(t);
                let before_ms = store_ms(&probe);
                let (r, ms) = tracer.span("oplog.compact_tenant", req, || {
                    probe.daemon.compact_tenant(&name, KEEP_LAST)
                });
                s.compact_ms.push(ms);
                s.query_store_ms += store_ms(&probe) - before_ms;
                busy_ms += ms;
                out.check(
                    r.map(|_| ())
                        .map_err(|e| format!("compacting tenant {t}: {e}")),
                );
            }
            let c = cpu_ms();
            let after = trend_dump(&probe);
            gate_cpu += cpu_ms() - c;
            out.check(match (before, after) {
                (Ok(b), Ok(a)) if a == b => Ok(()),
                (Ok(_), Ok(_)) => Err(format!("epoch {epoch}: compaction changed the trend dump")),
                (Err(e), _) | (_, Err(e)) => Err(format!("epoch {epoch} trend dump: {e}")),
            });
        }
        s.busy_ms += busy_ms;
        s.throughput.push(bots as f64 / (busy_ms / 1e3));
        let (ms, norm) = meter.split(gate_cpu);
        s.cpu.push((ms, norm, bots));
    }
    s.store_bytes = dir_bytes(dir);
    if let Some(layers) = layers {
        layers.absorb(&probe);
    }
    drop(probe);
    let _ = std::fs::remove_dir_all(dir);
    s
}

fn scenario_dir(tag: &str, rep: u64) -> PathBuf {
    Path::new(WORK_DIR).join(format!("{}-{tag}-{rep}", std::process::id()))
}

/// The set-up: a small serial scenario, gates included.
fn warm_up(out: &mut Outcome) {
    let refs = cold_references(WARMUP.0, WARMUP.1, WARMUP_SEED);
    let dir = scenario_dir("warmup", 0);
    scenario(&dir, 1, WARMUP.0, WARMUP.1, WARMUP_SEED, &refs, None, out);
}

pub fn run(args: &Args, out: &mut Outcome) {
    set_up(out, warm_up);
    if args.trace {
        return run_traced(args, out);
    }

    let mut all = Scenario::default();
    let mut cold = Samples::default();
    let mut warm = Samples::default();
    let mut store_mb = Samples::default();
    let mut cpu = Cpu::default();
    let refs = cold_references(SCALE, EPOCHS, args.seed);
    // Two of every three scenarios run with one daemon worker, whose CPU
    // time per epoch — normalized by a `Meter`, one segment per epoch — is
    // the gated cost (two busy threads on a few shared cores add scheduler
    // and cache contention to it); the third runs with `nproc` workers,
    // whose wall times are what an operator waits for.
    let started = Instant::now();
    let mut rep = 0u64;
    while rep < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let serial = rep % 3 != 2;
        let s = scenario(
            &scenario_dir("run", rep),
            if serial { 1 } else { nproc() },
            SCALE,
            EPOCHS,
            args.seed,
            &refs,
            None,
            out,
        );
        rep += 1;
        if serial {
            for (epoch, &(ms, norm, bots)) in s.cpu.iter().enumerate() {
                cpu.add(epoch, ms, norm, bots);
            }
            continue;
        }
        cold.push(s.epoch_ms[0] / 1e3);
        for ms in &s.epoch_ms[1..] {
            warm.push(ms / 1e3);
        }
        store_mb.push(s.store_bytes as f64 / (1024.0 * 1024.0));
        all.latency.extend(&s.latency);
        all.trend_ms.extend(&s.trend_ms);
        all.throughput.extend(&s.throughput);
    }
    report_audits(out, &all.latency, &all.throughput, &cpu);
    out.set_noted(
        "cold_epoch_s",
        cold.p50(),
        "s",
        format!("median of {}", cold.len()),
    );
    out.set_noted(
        "warm_epoch_s",
        warm.p50(),
        "s",
        format!("median of {}", warm.len()),
    );
    out.set("trend_query_ms_p50", all.trend_ms.p50(), "ms");
    set_tail(out, "trend_query_ms_tail", &all.trend_ms);
    out.set_noted(
        "store_mb",
        store_mb.p50(),
        "MiB",
        format!("median of {}", store_mb.len()),
    );
    out.note(format!(
        "{rep} scenarios of {TENANTS} tenants x {EPOCHS} epochs x {SCALE} listings, \
         two of three with 1 daemon worker, the rest with {}; \
         warm/cold epoch = {:.2}",
        nproc(),
        warm.p50() / cold.p50()
    ));
}

fn run_traced(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let mut layers = DaemonLayers::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut traced = Scenario::default();
    let seed = args.seed;
    let refs = cold_references(SCALE, EPOCHS, seed);
    let started = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let dir = scenario_dir("base", rep);
        let base = |out: &mut Outcome| {
            scenario(&dir, nproc(), SCALE, EPOCHS, seed, &refs, None, out).busy_ms
        };
        // Alternate which side runs first.
        if rep.is_multiple_of(2) {
            untraced_ms += base(out);
        }
        let s = scenario(
            &scenario_dir("traced", rep),
            nproc(),
            SCALE,
            EPOCHS,
            seed,
            &refs,
            Some((&tracer, &mut layers)),
            out,
        );
        if !rep.is_multiple_of(2) {
            untraced_ms += base(out);
        }
        traced_ms += s.busy_ms;
        traced.query_bytes += s.query_bytes;
        traced.query_store_ms += s.query_store_ms;
        traced.history_ms.extend(&s.history_ms);
        traced.trends_ms.extend(&s.trends_ms);
        traced.fleet_ms.extend(&s.fleet_ms);
        traced.compact_ms.extend(&s.compact_ms);
        rep += 1;
    }
    layers.report(out);
    let mean = |s: &Samples| {
        if s.len() == 0 {
            0.0
        } else {
            s.sum() / s.len() as f64
        }
    };
    out.set("oplog.history_ms", mean(&traced.history_ms), "ms");
    out.set("oplog.trends_ms", mean(&traced.trends_ms), "ms");
    out.set("oplog.fleet_trends_ms", mean(&traced.fleet_ms), "ms");
    out.set("oplog.compact_ms", mean(&traced.compact_ms), "ms");
    let queries = traced.history_ms.len() + traced.trends_ms.len() + traced.fleet_ms.len();
    out.set(
        "oplog.query_bytes_read",
        traced.query_bytes as f64 / queries.max(1) as f64,
        "bytes",
    );
    let oplog_wall = traced.history_ms.sum()
        + traced.trends_ms.sum()
        + traced.fleet_ms.sum()
        + traced.compact_ms.sum();
    let attributed = layers.store_ms + (oplog_wall - traced.query_store_ms);
    out.set(
        "obs.trace_overhead_ratio",
        traced_ms / untraced_ms - 1.0,
        "ratio",
    );
    out.set("trace.coverage", attributed / traced_ms, "ratio");
    crate::zero_unmeasured(out);
    out.note(format!(
        "attributed: store {:.1}%, oplog {:.1}% of {:.0} ms; unattributed (inside \
         FleetDaemon::tick, not separable from outside): {INSIDE_TICK} = {:.1}%",
        100.0 * layers.store_ms / traced_ms,
        100.0 * (oplog_wall - traced.query_store_ms) / traced_ms,
        traced_ms,
        100.0 * (1.0 - attributed / traced_ms)
    ));
    let validated = layers.counters.get("crawl.validated").copied().unwrap_or(0);
    let hits = layers
        .counters
        .get("crawl.validator_hits")
        .copied()
        .unwrap_or(0);
    out.note(format!(
        "validator hits: {hits} of {validated} conditional fetches; pack hits {} of {} lookups",
        layers.pack_hits, layers.pack_lookups
    ));
    crate::write_trace(args, &tracer, out);
}
