//! `daemon_contention`: an open loop on the virtual clock. Arrivals come
//! from `synth::adversarial_arrivals` — flooder batch bursts, steady
//! tenants, interactive pokes and just-missable deadlines — and are
//! submitted at their virtual due time whatever the daemon is doing. The
//! daemon runs with quantum 1 and batch slicing on over a `MemBackend`, so
//! batch audits park and resume (rebuilding the world and replaying the
//! journal) many times. Whole plans repeat, seeded afresh, until the run's
//! time is up.

use crate::probe::{DaemonLayers, Probe, INSIDE_TICK};
use crate::report::{digest, ms_since, nproc, Outcome, Samples};
use crate::trace::Tracer;
use crate::{report_audits, set_tail, set_up, Args, Cpu, Meter, WARMUP_SEED};
use chatbot_audit::{Audit, AuditBuilder, ErrorKind, FleetDaemonConfig};
use sched::JobSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use synth::{adversarial_arrivals, ArrivalConfig, DriftConfig};

/// Listings per audited world.
pub const SCALE: usize = 40;
/// Submission rounds per plan. An interactive poke lands every second
/// round, and plans repeat, so a run sees ≥ 20 interactive jobs.
pub const ROUNDS: u32 = 6;
/// Equal-weight standard-lane tenants beside the flooder.
const STEADY_TENANTS: u32 = 10;
const QUANTUM: u32 = 1;
const SLICE_FRAMES: u64 = 6;
const TICK_MS: u64 = 10;
const HONEYPOT_SAMPLE: usize = 5;
/// Arrivals per `Meter` segment of a one-worker plan: about 100 ms of CPU
/// time, so each segment sees one state of the shared host.
const SEGMENT_ARRIVALS: usize = 8;
/// Rounds of the set-up's warm-up plan.
const WARMUP_ROUNDS: u32 = 2;

/// What one plan measured.
#[derive(Default)]
struct Plan {
    latency: Samples,
    interactive: Samples,
    jobs: u64,
    expired: u64,
    bots: usize,
    busy_ms: f64,
    /// Raw and normalized CPU ms of the plan's timed work.
    cpu_ms: f64,
    norm_ms: f64,
    batch_jobs: u64,
}

/// One plan job's audit: every job of a plan audits the plan's seed and
/// differs only in its drift epoch.
fn audit(seed: u64, epoch: u32) -> AuditBuilder {
    Audit::builder()
        .scale(SCALE)
        .seed(seed)
        .honeypot_sample(HONEYPOT_SAMPLE)
        .site_defenses(false)
        .workers(1)
        .drift(DriftConfig::default())
        .epoch(epoch)
}

/// One `Meter` segment for the whole plan.
const WHOLE_PLAN: usize = usize::MAX;

/// Run one plan on a daemon with `workers` workers, metering its CPU time
/// in segments of `segment` arrivals; gates go to `out`. Calibrating
/// mid-plan stalls the daemon's wall clock, so only a plan timed for CPU
/// alone is cut into segments.
fn plan(
    workers: usize,
    segment: usize,
    rounds: u32,
    seed: u64,
    traced: Option<(&Tracer, &mut DaemonLayers)>,
    out: &mut Outcome,
) -> Plan {
    let arrivals = adversarial_arrivals(&ArrivalConfig {
        seed,
        rounds,
        steady_tenants: STEADY_TENANTS,
        ..ArrivalConfig::default()
    });
    let config = FleetDaemonConfig {
        queue_capacity: arrivals.len() + 1,
        workers,
        tenant_rate: None,
        quantum: QUANTUM,
        batch_slice_frames: Some(SLICE_FRAMES),
        tick_ms: TICK_MS,
    };
    let off = Tracer::new(false);
    let (tracer, layers) = match traced {
        Some((t, l)) => (t, Some(l)),
        None => (&off, None),
    };
    let mut probe = Probe::new(config, Arc::new(store::MemBackend::new()), layers.is_some());
    let mut p = Plan::default();
    let mut settled = Vec::new();

    let mut meter = Meter::start();
    let mut split = |p: &mut Plan| {
        let (raw, norm) = meter.split(0.0);
        p.cpu_ms += raw;
        p.norm_ms += norm;
    };
    let t0 = Instant::now();
    for (i, arrival) in arrivals.iter().enumerate() {
        if i > 0 && i % segment == 0 {
            split(&mut p);
        }
        settled.extend(probe.run_busy(Some(arrival.at_ms), tracer, seed));
        probe.advance_to(arrival.at_ms);
        let mut spec = JobSpec::builder(arrival.tenant.as_str())
            .lane_named(arrival.lane)
            .weight(arrival.weight);
        if let Some(deadline) = arrival.deadline_ms {
            spec = spec.deadline_ms(deadline);
        }
        let job = audit(seed, arrival.epoch)
            .obs(probe.obs.clone())
            .into_job()
            .expect("contention job configuration is valid");
        p.jobs += 1;
        p.batch_jobs += u64::from(arrival.lane == "batch");
        let submitted = spec
            .build()
            .map_err(|e| e.to_string())
            .and_then(|spec| probe.submit(spec, job));
        if let Err(e) = submitted {
            out.check(Err(format!("arrival {i} ({}): {e}", arrival.tenant)));
        }
    }
    settled.extend(probe.run_busy(None, tracer, seed));
    p.busy_ms = ms_since(t0);
    split(&mut p);

    // Each completed report — sliced, parked and resumed, or diffed
    // against its tenant's previous epoch — must match an unsliced cold
    // `Audit::run()` of the same seed and epoch byte for byte.
    let mut references: BTreeMap<u32, Result<u64, String>> = BTreeMap::new();
    let mut typed_expiries = 0;
    for done in &settled {
        let o = &done.outcome;
        out.check(match &o.report {
            Ok(report) => {
                p.bots += report.bots.len();
                p.latency.push(done.latency_ms);
                if done.lane == "interactive" {
                    p.interactive.push(done.latency_ms);
                }
                let reference = references.entry(o.epoch).or_insert_with(|| {
                    let a = audit(seed, o.epoch).build().map_err(|e| e.to_string())?;
                    a.run().map(|r| digest(&r)).map_err(|e| e.to_string())
                });
                match reference {
                    Ok(d) if *d == digest(report) => Ok(()),
                    Ok(_) => Err(format!(
                        "{} epoch {}: report differs from a cold unsliced audit",
                        o.tenant, o.epoch
                    )),
                    Err(e) => Err(format!("reference audit at epoch {}: {e}", o.epoch)),
                }
            }
            Err(e) if e.kind() == ErrorKind::Expired => {
                typed_expiries += 1;
                Ok(())
            }
            Err(e) => Err(format!("{} epoch {}: {e}", o.tenant, o.epoch)),
        });
    }
    p.expired = typed_expiries;
    let counted = probe.counter("sched.expired");
    out.check(if settled.len() as u64 == p.jobs && typed_expiries == counted {
        Ok(())
    } else {
        Err(format!(
            "plan {seed}: {} of {} jobs settled; {typed_expiries} typed expiries vs sched.expired {counted}",
            settled.len(),
            p.jobs
        ))
    });
    // Every plan tenant carries weight 1, so the bound is the quantum.
    let gap = probe.daemon.fairness_gap();
    out.check(if gap <= u64::from(QUANTUM) {
        Ok(())
    } else {
        Err(format!(
            "plan {seed}: DRR service gap {gap} exceeds quantum x weight {QUANTUM}"
        ))
    });
    if let Some(layers) = layers {
        for done in &settled {
            layers.record(done);
        }
        layers.absorb(&probe);
    }
    p
}

/// The set-up: a short plan, gates included.
fn warm_up(out: &mut Outcome) {
    plan(1, WHOLE_PLAN, WARMUP_ROUNDS, WARMUP_SEED, None, out);
}

pub fn run(args: &Args, out: &mut Outcome) {
    set_up(out, warm_up);
    if args.trace {
        return run_traced(args, out);
    }

    let mut latency = Samples::default();
    let mut interactive = Samples::default();
    let mut throughput = Samples::default();
    let mut cpu = Cpu::default();
    let (mut jobs, mut expired) = (0, 0);
    let started = Instant::now();
    let mut rep = 0u64;
    // Plans alternate between one daemon worker, whose CPU time —
    // normalized by a `Meter` — is the gated cost (two busy threads on a
    // few shared cores add scheduler and cache contention to it), and
    // `nproc` workers, whose wall times and expiries are what the tenants
    // see.
    while rep < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let serial = rep.is_multiple_of(2);
        let (workers, segment) = if serial {
            (1, SEGMENT_ARRIVALS)
        } else {
            (nproc(), WHOLE_PLAN)
        };
        let p = plan(workers, segment, ROUNDS, args.seed + rep, None, out);
        rep += 1;
        if serial {
            cpu.add(0, p.cpu_ms, p.norm_ms, p.bots);
        } else {
            latency.extend(&p.latency);
            interactive.extend(&p.interactive);
            jobs += p.jobs;
            expired += p.expired;
            throughput.push(p.bots as f64 / (p.busy_ms / 1e3));
        }
    }
    report_audits(out, &latency, &throughput, &cpu);
    out.set("interactive_ms_p50", interactive.p50(), "ms");
    set_tail(out, "interactive_ms_tail", &interactive);
    out.set_noted(
        "expired_ratio",
        expired as f64 / jobs as f64,
        "ratio",
        format!("{expired} of {jobs} jobs"),
    );
    out.note(format!(
        "{rep} plans of {ROUNDS} rounds, alternately with 1 and {} daemon workers; {} \
         interactive jobs on the latter; arrivals submitted at their \
         virtual due time (generator lateness 0 virtual ms)",
        nproc(),
        interactive.len()
    ));
}

fn run_traced(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let mut layers = DaemonLayers::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut batch_jobs = 0;
    let started = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let seed = args.seed + rep;
        let base = || {
            plan(
                nproc(),
                WHOLE_PLAN,
                ROUNDS,
                seed,
                None,
                &mut Outcome::default(),
            )
            .busy_ms
        };
        // Alternate which side runs first.
        if rep.is_multiple_of(2) {
            untraced_ms += base();
        }
        let p = plan(
            nproc(),
            WHOLE_PLAN,
            ROUNDS,
            seed,
            Some((&tracer, &mut layers)),
            out,
        );
        if !rep.is_multiple_of(2) {
            untraced_ms += base();
        }
        traced_ms += p.busy_ms;
        batch_jobs += p.batch_jobs;
        rep += 1;
    }
    layers.report(out);
    let attributed = layers.store_ms;
    out.set(
        "obs.trace_overhead_ratio",
        traced_ms / untraced_ms - 1.0,
        "ratio",
    );
    out.set("trace.coverage", attributed / traced_ms, "ratio");
    crate::zero_unmeasured(out);
    let parked = layers.counters.get("sched.parked").copied().unwrap_or(0);
    out.note(format!(
        "parks per batch job: {:.2} ({parked} parks over {batch_jobs} batch submissions)",
        parked as f64 / batch_jobs.max(1) as f64
    ));
    out.note(format!(
        "attributed: store {:.1}% of {:.0} ms; unattributed (inside FleetDaemon::tick, not \
         separable from outside): {INSIDE_TICK} = {:.1}%",
        100.0 * attributed / traced_ms,
        traced_ms,
        100.0 * (1.0 - attributed / traced_ms)
    ));
    crate::write_trace(args, &tracer, out);
}
