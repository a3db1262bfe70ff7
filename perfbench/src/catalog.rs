//! The benchmark's schema: workloads, end-to-end metrics, and per-layer
//! metrics with the end-to-end metric (and workload) each should move.
//!
//! `BENCHMARK.json` at the repository root lists the subset a regression
//! gate can hold every workload to; the self-check at the bottom of this
//! file keeps the two in step.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cold_audit", "fleet_reaudit", "daemon_contention"];

/// An end-to-end metric: what a user of the auditor sees.
#[cfg_attr(not(test), allow(dead_code))]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads that define it; empty means every workload.
    pub workloads: &'static [&'static str],
    /// Whether `BENCHMARK.json` bounds it. A bounded metric is defined on
    /// every workload, is never zero, and stays steady from run to run on a
    /// shared 2-vCPU VM. There, the run-to-run spread of wall-clock
    /// throughput and latency medians reached 0.24–0.45, and that of raw
    /// CPU time per listing 0.23–0.42. So the gate holds CPU cost and
    /// set-up CPU time, both scaled by a calibration kernel (see
    /// `perfbench/README.md`), and memory. Wall-clock figures are printed
    /// beside them. `error_ratio` is zero on a healthy run and cannot be
    /// bounded as a share of its median.
    pub gated: bool,
}

const ALL: &[&str] = &[];
const FLEET: &[&str] = &["fleet_reaudit"];
const CONTENTION: &[&str] = &["daemon_contention"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    workloads: &'static [&'static str],
    gated: bool,
) -> E2e {
    let better = if matches!(unit.as_bytes(), b"1/s") {
        "higher"
    } else {
        "lower"
    };
    E2e {
        name,
        unit,
        better,
        workloads,
        gated,
    }
}

/// Every end-to-end metric the benchmark prints.
pub const E2E: [E2e; 15] = [
    e2e("setup_s", "s", ALL, true),
    e2e("bots_per_s", "1/s", ALL, false),
    e2e("audit_ms_p50", "ms", ALL, false),
    e2e("audit_ms_tail", "ms", ALL, false),
    e2e("norm_cpu_ms_per_bot", "ms", ALL, true),
    e2e("cold_epoch_s", "s", FLEET, false),
    e2e("warm_epoch_s", "s", FLEET, false),
    e2e("trend_query_ms_p50", "ms", FLEET, false),
    e2e("trend_query_ms_tail", "ms", FLEET, false),
    e2e("interactive_ms_p50", "ms", CONTENTION, false),
    e2e("interactive_ms_tail", "ms", CONTENTION, false),
    e2e("peak_rss_mb", "MiB", ALL, true),
    e2e("store_mb", "MiB", FLEET, false),
    e2e("error_ratio", "ratio", ALL, false),
    e2e("expired_ratio", "ratio", CONTENTION, false),
];

impl E2e {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// The gated end-to-end metrics, in catalogue order.
pub fn gated_e2e() -> Vec<&'static str> {
    E2E.iter().filter(|m| m.gated).map(|m| m.name).collect()
}

/// A per-layer metric, named `<crate>.<metric>`.
#[cfg_attr(not(test), allow(dead_code))]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this layer metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SYNTH: &[(&str, &str)] = &[
    ("audit_ms_p50", "cold_audit"),
    ("audit_ms_p50", "fleet_reaudit"),
    ("audit_ms_p50", "daemon_contention"),
    ("interactive_ms_p50", "daemon_contention"),
];
const COLD_THROUGHPUT: &[(&str, &str)] = &[("bots_per_s", "cold_audit")];
const PARSE: &[(&str, &str)] = &[("bots_per_s", "cold_audit"), ("audit_ms_p50", "cold_audit")];
const CRAWL: &[(&str, &str)] = &[
    ("bots_per_s", "cold_audit"),
    ("warm_epoch_s", "fleet_reaudit"),
];
const WARM: &[(&str, &str)] = &[("warm_epoch_s", "fleet_reaudit")];
const HONEYPOT: &[(&str, &str)] = &[
    ("audit_ms_p50", "cold_audit"),
    ("warm_epoch_s", "fleet_reaudit"),
];
const STORE_WRITE: &[(&str, &str)] = &[
    ("warm_epoch_s", "fleet_reaudit"),
    ("store_mb", "fleet_reaudit"),
];
const STORE_READ: &[(&str, &str)] = &[
    ("warm_epoch_s", "fleet_reaudit"),
    ("interactive_ms_p50", "daemon_contention"),
];
const REPLAY: &[(&str, &str)] = &[
    ("interactive_ms_p50", "daemon_contention"),
    ("bots_per_s", "daemon_contention"),
];
const SCHED: &[(&str, &str)] = &[("interactive_ms_p50", "daemon_contention")];
const EXPIRY: &[(&str, &str)] = &[
    ("interactive_ms_p50", "daemon_contention"),
    ("expired_ratio", "daemon_contention"),
];
const QUERY: &[(&str, &str)] = &[("trend_query_ms_p50", "fleet_reaudit")];
const COMPACT: &[(&str, &str)] = &[
    ("store_mb", "fleet_reaudit"),
    ("bots_per_s", "fleet_reaudit"),
];
const CHAIN: &[(&str, &str)] = &[("store_mb", "fleet_reaudit")];
// Tracing cost and attribution are read against every workload's
// throughput: the overhead says how far a traced run drifts from it, the
// coverage how much of it the layer table explains.
const OBSERVED: &[(&str, &str)] = &[
    ("bots_per_s", "cold_audit"),
    ("bots_per_s", "fleet_reaudit"),
    ("bots_per_s", "daemon_contention"),
];

/// Every per-layer metric a traced run prints.
pub const LAYERS: [Layer; 52] = [
    layer("synth.build_ms", "ms", "lower", SYNTH),
    layer("synth.builds", "count", "lower", SYNTH),
    layer("botlist.serve_ms", "ms", "lower", COLD_THROUGHPUT),
    layer("botlist.pages", "count", "lower", COLD_THROUGHPUT),
    layer("botlist.bytes", "bytes", "lower", COLD_THROUGHPUT),
    layer("html.parse_ms", "ms", "lower", PARSE),
    layer("html.bytes", "bytes", "lower", PARSE),
    layer("crawler.crawl_ms", "ms", "lower", CRAWL),
    layer("crawler.self_ms", "ms", "lower", CRAWL),
    layer("crawl.validated", "count", "higher", WARM),
    layer("crawl.fetched_full", "count", "lower", CRAWL),
    layer("crawl.validator_hits", "count", "higher", WARM),
    layer("crawl.bytes_saved", "bytes", "higher", WARM),
    layer("crawler.validator_hit_ratio", "ratio", "higher", WARM),
    layer("policy.analyze_ms", "ms", "lower", COLD_THROUGHPUT),
    layer("policy.bytes_scanned", "bytes", "lower", COLD_THROUGHPUT),
    layer("policy.memo_hit_ratio", "ratio", "higher", COLD_THROUGHPUT),
    layer("codeanal.resolve_ms", "ms", "lower", COLD_THROUGHPUT),
    layer("codeanal.scan_ms", "ms", "lower", COLD_THROUGHPUT),
    layer("code.bytes_scanned", "bytes", "lower", COLD_THROUGHPUT),
    layer(
        "codeanal.link_cache_hit_ratio",
        "ratio",
        "higher",
        COLD_THROUGHPUT,
    ),
    layer("honeypot.campaign_ms", "ms", "lower", HONEYPOT),
    layer("honeypot.guilds", "count", "lower", HONEYPOT),
    layer("honeypot.guilds_reused", "count", "higher", WARM),
    layer("store.append_ms", "ms", "lower", STORE_WRITE),
    layer("store.append_count", "count", "lower", STORE_WRITE),
    layer("store.append_bytes", "bytes", "lower", STORE_WRITE),
    layer("store.read_ms", "ms", "lower", STORE_READ),
    layer("store.read_count", "count", "lower", STORE_READ),
    layer("store.read_bytes", "bytes", "lower", STORE_READ),
    layer("store.write_atomic_ms", "ms", "lower", STORE_WRITE),
    layer("store.write_atomic_count", "count", "lower", STORE_WRITE),
    layer("store.write_atomic_bytes", "bytes", "lower", STORE_WRITE),
    layer("store.frames_written", "count", "lower", CHAIN),
    layer("store.frames_replayed", "count", "lower", REPLAY),
    layer("store.pack_hit_ratio", "ratio", "higher", STORE_WRITE),
    layer("store.replay_ratio", "ratio", "lower", REPLAY),
    layer("sched.ticks", "count", "lower", SCHED),
    layer("sched.tick_ms", "ms", "lower", SCHED),
    layer("sched.idle_tick_us_p50", "us", "lower", SCHED),
    layer("sched.parked", "count", "lower", SCHED),
    layer("sched.expired", "count", "lower", EXPIRY),
    layer("sched.drr.max_gap", "count", "lower", SCHED),
    layer("sched.wait_virtual_ms_p50", "ms", "lower", SCHED),
    layer("oplog.history_ms", "ms", "lower", QUERY),
    layer("oplog.trends_ms", "ms", "lower", QUERY),
    layer("oplog.fleet_trends_ms", "ms", "lower", QUERY),
    layer("oplog.compact_ms", "ms", "lower", COMPACT),
    layer("oplog.query_bytes_read", "bytes", "lower", QUERY),
    layer("oplog.appended", "count", "higher", CHAIN),
    layer("obs.trace_overhead_ratio", "ratio", "lower", OBSERVED),
    layer("trace.coverage", "ratio", "higher", OBSERVED),
];

/// The per-layer metric names, in catalogue order.
pub fn layer_names() -> Vec<&'static str> {
    LAYERS.iter().map(|l| l.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        match obj {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn keys(obj: &Value) -> Vec<&str> {
        match obj {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Number(n) => n.to_string().parse().expect("numeric"),
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn catalogue_names_units_and_links_are_well_formed() {
        assert!(E2E.len() <= 16 && LAYERS.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in E2E
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|l| l.name))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        for unit in E2E
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|l| l.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for m in &E2E {
            for w in m.workloads {
                assert!(
                    WORKLOADS.contains(w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
            assert!(
                !m.gated || m.workloads.is_empty(),
                "{} gated but partial",
                m.name
            );
        }
        for l in &LAYERS {
            assert!(["lower", "higher"].contains(&l.better));
            assert!(!l.moves.is_empty(), "{} moves nothing", l.name);
            for (metric, workload) in l.moves {
                let e = E2E
                    .iter()
                    .find(|m| m.name == *metric)
                    .unwrap_or_else(|| panic!("{} moves unknown metric {metric}", l.name));
                assert!(
                    WORKLOADS.contains(workload),
                    "{}: workload {workload}",
                    l.name
                );
                assert!(
                    e.applies_to(workload),
                    "{}: {metric} is not defined on {workload}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<&str> = list(field(&doc, "workloads"))
            .iter()
            .map(|w| {
                assert_eq!(keys(w), ["name", "why"]);
                let why = text(field(w, "why"));
                assert!(
                    why.len() <= 200 && !why.contains('\n'),
                    "why too long: {why}"
                );
                text(field(w, "name"))
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = list(field(&doc, "end_to_end"));
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        let names: Vec<&str> = e2e.iter().map(|m| text(field(m, "name"))).collect();
        assert_eq!(names, gated_e2e());
        let mut setup_bound = 0.0;
        let mut max_bound: f64 = 0.0;
        for m in e2e {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let name = text(field(m, "name"));
            let cat = E2E.iter().find(|c| c.name == name).expect("catalogued");
            assert_eq!(text(field(m, "unit")), cat.unit, "{name}");
            assert_eq!(text(field(m, "better")), cat.better, "{name}");
            let bound = number(field(m, "bound"));
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            max_bound = max_bound.max(bound);
            if name == "setup_s" {
                setup_bound = bound;
            }
        }
        assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");

        let per_layer = list(field(&doc, "per_layer"));
        assert!(!per_layer.is_empty() && per_layer.len() <= 128);
        let names: Vec<&str> = per_layer.iter().map(|m| text(field(m, "name"))).collect();
        assert_eq!(names, layer_names());
        for (m, cat) in per_layer.iter().zip(&LAYERS) {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            assert_eq!(text(field(m, "unit")), cat.unit, "{}", cat.name);
            assert_eq!(text(field(m, "better")), cat.better, "{}", cat.name);
        }

        let seconds = number(field(&doc, "run_seconds"));
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        let paths = list(field(&doc, "paths"));
        assert_eq!(paths.len(), 1);
        assert_eq!(text(&paths[0]), "perfbench");
        let command = list(field(&doc, "command"));
        assert!(command.len() <= 32);
        for arg in command {
            let arg = text(arg);
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }
}
