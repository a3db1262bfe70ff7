//! Result plumbing shared by every workload: sample statistics, the
//! environment record (commit, cores, peak RSS) and the one-line JSON
//! result the benchmark prints last.

use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock samples of one operation kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// A tail statistic: the highest percentile that still has at least ten
/// samples beyond it, with the percentile and sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// Samples needed beyond a tail percentile for it to mean anything.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the middle pair for even counts); 0 when empty.
    pub fn p50(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The 10th, 20th, ..., 90th percentiles (nearest rank).
    pub fn deciles(&self) -> Vec<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return Vec::new();
        }
        (1..10)
            .map(|d| v[(d * v.len() / 10).min(v.len() - 1)])
            .collect()
    }

    /// The sample with exactly [`TAIL_BEYOND`] samples above it. With too
    /// few samples for that, the maximum, at percentile 100.
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        if n <= TAIL_BEYOND {
            return Tail {
                value: v.last().copied().unwrap_or(0.0),
                percentile: 100.0,
                n,
            };
        }
        let idx = n - TAIL_BEYOND - 1;
        Tail {
            value: v[idx],
            percentile: 100.0 * (idx + 1) as f64 / n as f64,
            n,
        }
    }
}

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context printed beside the value (never in JSON).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (printed to stderr, capped).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Free-form lines printed before the result (shares, unattributed
    /// layers, trace location).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.set_noted(name, value, unit, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.insert(name, Metric { value, unit, note });
    }

    /// Count one attempted operation; `Err` counts it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// CPU time (user + system, every thread, including threads that have
/// ended) this process has used so far, in milliseconds, read from the
/// process CPU-time clock at nanosecond resolution.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit time_t and long
    // on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// A digest of a report's canonical JSON, so a run can hold the reference
/// for every report it checks without holding the reports.
pub fn digest(report: &chatbot_audit::CanonicalReport) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    serde_json::to_string(report)
        .expect("report serializes")
        .hash(&mut h);
    h.finish()
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory when
/// there is one (a plain source export has none and reports `unknown`).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Worker threads for every workload: one per available core, so no run
/// has more busy threads than cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Render the final result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, restricted to `names` (in that order). A value that is
/// not finite is written as `null`; `main` has already counted it failed.
pub fn result_json(outcome: &Outcome, names: &[&str]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let m = outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        let t = s.tail();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(s.p50(), 50.5);
    }

    #[test]
    fn small_sample_tail_is_the_maximum() {
        let mut s = Samples::default();
        s.push(3.0);
        s.push(1.0);
        assert_eq!(s.tail().value, 3.0);
        assert_eq!(s.tail().percentile, 100.0);
    }
}
