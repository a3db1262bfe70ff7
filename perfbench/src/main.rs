//! The auditor's benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_audit|fleet_reaudit|daemon_contention \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! JSON result; the lines before it print every metric with its unit.
//! See `perfbench/README.md` for what each workload and metric means.

mod catalog;
mod cold;
mod contention;
mod fleet;
mod probe;
mod report;
mod trace;

use report::{Outcome, Samples};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            catalog::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// When `main` began, and when the set-up handed over to the first timed
/// operation (wall clock, and the process's CPU clock in ms).
static PROCESS_START: OnceLock<Instant> = OnceLock::new();
static FIRST_TIMED: OnceLock<(Instant, f64)> = OnceLock::new();

/// Set-ups run before the first timed operation.
const SETUP_REPS: u64 = 9;

/// The seed of every workload's warm-up. It is fixed, not taken from
/// `--seed`, so set-up does the same work in every run.
pub const WARMUP_SEED: u64 = 2022;

/// CPU ms the calibration kernel takes on an undisturbed core of the host
/// this benchmark was tuned on (a 2-vCPU Intel Xeon VM). It is fixed, so
/// normalized figures stay comparable from commit to commit.
const CALIBRATION_REFERENCE_MS: f64 = 10.0;

/// Run the calibration kernel once and return the process CPU time it
/// took, in ms. The kernel is a fixed mix of string formatting, hashing,
/// map inserts and a sort, shaped like the audit's own work (pages
/// rendered, parsed and indexed) so that a neighbour on a shared host
/// slows it as much as it slows the audit. It calls no repository crate,
/// so no change to the program moves it.
fn calibrate() -> f64 {
    const ROUNDS: u64 = 20_000;
    let cpu0 = report::cpu_ms();
    let mut by_prefix: HashMap<String, u64> = HashMap::new();
    let mut by_key: BTreeMap<u64, String> = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..ROUNDS {
        let html = format!(
            "<div class=\"bot-{}\"><a href=\"/bot/{i}\">name {}</a></div>",
            i % 977,
            i * 7
        );
        sum = sum.wrapping_add(html.bytes().map(u64::from).sum::<u64>());
        *by_prefix.entry(html[..20].to_string()).or_default() += 1;
        by_key.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), html);
    }
    let mut sorted: Vec<&String> = by_key.values().collect();
    sorted.sort();
    std::hint::black_box((sum, sorted.len(), by_prefix.len()));
    let ms = report::cpu_ms() - cpu0;
    CALIBRATING_MS.with(|total| total.set(total.get() + ms));
    ms
}

thread_local! {
    /// CPU ms this thread has spent in the calibration kernel so far.
    static CALIBRATING_MS: Cell<f64> = const { Cell::new(0.0) };
}

fn calibrating_ms() -> f64 {
    CALIBRATING_MS.with(Cell::get)
}

/// Process CPU time of timed work, normalized piecewise to the reference
/// host speed. The work is cut into segments at natural boundaries (an
/// audit, an epoch, a few arrivals). The calibration kernel runs before
/// the first segment and after each one, and a segment's CPU time is
/// scaled by 10 ms ÷ the mean of the kernel's runs just before and after
/// it. The host's speed changes every few hundred ms, so segments are kept
/// short. A busy neighbour inflates the segment and the kernel
/// alike, so the scaled figure tracks the program's own cost. The kernel's
/// own CPU time is never counted, not even that of a meter nested inside a
/// segment (a set-up that runs a metered plan).
pub struct Meter {
    calibration_ms: f64,
    cpu0: f64,
    calibrating0: f64,
}

impl Meter {
    /// Calibrate, then start the first segment.
    pub fn start() -> Meter {
        let calibration_ms = calibrate();
        Meter {
            calibration_ms,
            cpu0: report::cpu_ms(),
            calibrating0: calibrating_ms(),
        }
    }

    /// Close the current segment, less `excluded_ms` of CPU time spent in
    /// it on checks, and start the next. Returns the segment's raw and
    /// normalized CPU ms.
    pub fn split(&mut self, excluded_ms: f64) -> (f64, f64) {
        let nested = calibrating_ms() - self.calibrating0;
        let raw = report::cpu_ms() - self.cpu0 - nested - excluded_ms;
        let next = calibrate();
        let norm = raw * CALIBRATION_REFERENCE_MS / ((self.calibration_ms + next) / 2.0);
        self.calibration_ms = next;
        self.cpu0 = report::cpu_ms();
        self.calibrating0 = calibrating_ms();
        (raw, norm)
    }
}

/// Run a workload's set-up — everything it does before its first timed
/// operation: a fixed warm-up, gates included, that also compiles the
/// lazily built kernels — `SETUP_REPS` times, counting its gate failures
/// in `out`. `setup_s` is the median over the set-ups of one set-up's
/// process CPU time, normalized by a [`Meter`].
pub fn set_up(out: &mut Outcome, mut run: impl FnMut(&mut Outcome)) {
    let mut times = Samples::default();
    let mut raw = Samples::default();
    let mut meter = Meter::start();
    for _ in 0..SETUP_REPS {
        run(out);
        let (ms, norm) = meter.split(0.0);
        times.push(norm / 1e3);
        raw.push(ms / 1e3);
    }
    FIRST_TIMED.get_or_init(|| (Instant::now(), report::cpu_ms()));
    out.set_noted(
        "setup_s",
        times.p50(),
        "s",
        format!(
            "median of {SETUP_REPS} set-ups, normalized CPU time; raw CPU s: {}",
            raw.values()
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
}

/// CPU time spent in a run's timed operations and the listings they
/// audited, in total and per unit of work, grouped by the kind of unit:
/// every audit of `cold_audit` is one kind, each epoch of a
/// `fleet_reaudit` scenario its own (a cold epoch costs more than a warm
/// one), every plan of `daemon_contention` one kind.
#[derive(Debug, Default, Clone)]
pub struct Cpu {
    pub ms: f64,
    pub bots: usize,
    /// Per kind: normalized CPU ms per listing of each unit, raw CPU ms per
    /// listing of each unit, and listings in all.
    kinds: BTreeMap<usize, (Samples, Samples, usize)>,
}

impl Cpu {
    /// Count one unit of work of `kind`: `ms` of CPU time, `norm_ms` once
    /// normalized by a [`Meter`], that audited `bots`.
    pub fn add(&mut self, kind: usize, ms: f64, norm_ms: f64, bots: usize) {
        self.ms += ms;
        self.bots += bots;
        if bots > 0 {
            let (norm, raw, listings) = self.kinds.entry(kind).or_default();
            norm.push(norm_ms / bots as f64);
            raw.push(ms / bots as f64);
            *listings += bots;
        }
    }

    /// Each kind's median per listing, normalized or raw, weighted by the
    /// listings its unit audits on average. No unit of work means no figure
    /// (not a finite number).
    fn per_bot(&self, normalized: bool) -> f64 {
        let (ms, bots) =
            self.kinds
                .values()
                .fold((0.0, 0.0), |(ms, bots), (norm, raw, listings)| {
                    let per_unit = *listings as f64 / norm.len() as f64;
                    let median = if normalized { norm.p50() } else { raw.p50() };
                    (ms + median * per_unit, bots + per_unit)
                });
        if bots == 0.0 {
            f64::NAN
        } else {
            ms / bots
        }
    }

    fn units(&self) -> usize {
        self.kinds.values().map(|(norm, _, _)| norm.len()).sum()
    }
}

/// The metrics every workload reports: audit latency (ms); throughput in
/// listings per wall second, as the median over the run's units of work
/// (an audit, an epoch, a plan), which rides out short stalls of a shared
/// machine; and CPU time per listing, normalized by a [`Meter`].
pub fn report_audits(out: &mut Outcome, latency: &Samples, throughput: &Samples, cpu: &Cpu) {
    out.set_noted(
        "norm_cpu_ms_per_bot",
        cpu.per_bot(true),
        "ms",
        format!(
            "median of {} units in {} kinds; raw {:.4} ms ({:.0} CPU ms over {} listings in all)",
            cpu.units(),
            cpu.kinds.len(),
            cpu.per_bot(false),
            cpu.ms,
            cpu.bots
        ),
    );
    out.set_noted(
        "bots_per_s",
        throughput.p50(),
        "1/s",
        format!("median of {}", throughput.len()),
    );
    out.set("audit_ms_p50", latency.p50(), "ms");
    set_tail(out, "audit_ms_tail", latency);
    let deciles: Vec<String> = latency
        .deciles()
        .iter()
        .map(|d| format!("{d:.1}"))
        .collect();
    out.note(format!("audit latency deciles (ms): {}", deciles.join(" ")));
}

/// Set a tail metric, noting its percentile and sample count.
pub fn set_tail(out: &mut Outcome, name: &'static str, samples: &Samples) {
    let tail = samples.tail();
    out.set_noted(
        name,
        tail.value,
        "ms",
        format!("p{:.1}, n={}", tail.percentile, tail.n),
    );
}

/// Report zero for every per-layer metric this workload's traced run
/// cannot measure from outside the program (its notes name them).
pub fn zero_unmeasured(out: &mut Outcome) {
    for layer in &catalog::LAYERS {
        out.metrics
            .entry(layer.name)
            .or_insert_with(|| report::Metric {
                value: 0.0,
                unit: layer.unit,
                note: String::new(),
            });
    }
}

/// Where traced runs leave their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_work/traces";

pub fn write_trace(args: &Args, tracer: &trace::Tracer, out: &mut Outcome) {
    let path =
        std::path::Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => out.note(format!(
            "trace: {} spans written to {}",
            tracer.span_count(),
            path.display()
        )),
        Err(e) => out.check(Err(format!("writing {}: {e}", path.display()))),
    }
}

fn main() -> ExitCode {
    PROCESS_START.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} commit={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::commit(),
        report::nproc()
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "cold_audit" => cold::run(&args, &mut out),
        "fleet_reaudit" => fleet::run(&args, &mut out),
        "daemon_contention" => contention::run(&args, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    out.set("peak_rss_mb", report::peak_rss_mb(), "MiB");
    let gated = if args.trace {
        catalog::layer_names()
    } else {
        catalog::gated_e2e()
    };
    for name in &gated {
        if out.metrics.get(name).is_some_and(|m| !m.value.is_finite()) {
            out.check(Err(format!("{name} is not a finite number")));
        }
    }
    let error_ratio = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.set("error_ratio", error_ratio, "ratio");

    if let (Some(start), Some((first, cpu))) = (PROCESS_START.get(), FIRST_TIMED.get()) {
        out.note(format!(
            "process start to first timed operation: {:.3} s wall, {:.3} s CPU ({SETUP_REPS} set-ups)",
            first.duration_since(*start).as_secs_f64(),
            cpu / 1e3
        ));
    }
    for why in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {why}");
    }
    for line in &out.notes {
        println!("# {line}");
    }
    let names: Vec<&str> = if args.trace {
        catalog::layer_names()
    } else {
        catalog::E2E
            .iter()
            .filter(|m| m.applies_to(&args.workload))
            .map(|m| m.name)
            .collect()
    };
    for name in &names {
        let m = &out.metrics[name];
        let unit = catalog::E2E
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(catalog::LAYERS.iter().map(|l| (l.name, l.unit)))
            .find(|(n, _)| n == name)
            .map(|(_, u)| u);
        assert_eq!(unit, Some(m.unit), "{name} reported in the wrong unit");
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{name:<32} {:>14.4} {}{note}", m.value, m.unit);
    }
    println!("{}", report::result_json(&out, &gated));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_meter_never_counts_calibration() {
        let mut outer = Meter::start();
        let mut inner = Meter::start();
        let (inner_raw, _) = inner.split(0.0);
        let (outer_raw, outer_norm) = outer.split(0.0);
        let kernel_ms = calibrate();
        // Each segment held almost no work besides the inner meter's two
        // kernel runs, which neither segment may count.
        assert!(inner_raw < kernel_ms / 2.0, "{inner_raw} vs {kernel_ms}");
        assert!(outer_raw < kernel_ms / 2.0, "{outer_raw} vs {kernel_ms}");
        assert!(outer_norm >= 0.0);
    }
}
