//! Reproducibility: identical seeds must yield byte-identical measurement
//! outputs across the whole stack — the property EXPERIMENTS.md relies on.

use chatbot_audit::{
    figure3_distribution, table2_traceability, table3_code_analysis, AuditConfig, AuditPipeline,
};
use synth::{build_ecosystem, EcosystemConfig};

/// Run the whole pipeline (crawl + static stages + honeypot) with every
/// `workers` knob set to `workers`, against a fresh world, and return the
/// canonical JSON report.
fn canonical_run(seed: u64, workers: usize) -> String {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(300, seed));
    let mut config = AuditConfig {
        honeypot_sample: 15,
        ..AuditConfig::default()
    };
    config.workers = workers;
    config.honeypot.workers = workers;
    let pipeline = AuditPipeline::new(config);
    pipeline.run_full(&eco).canonical_json()
}

fn full_run(seed: u64) -> (String, usize, usize) {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(300, seed));
    let pipeline = AuditPipeline::new(AuditConfig {
        honeypot_sample: 15,
        ..AuditConfig::default()
    });
    let (bots, stats) = pipeline.run_static_stages(&eco.net);
    let campaign = pipeline.run_honeypot(&eco);

    let fig3 = format!("{:?}", figure3_distribution(&bots, 25));
    let t2 = table2_traceability(&bots);
    let t3 = table3_code_analysis(&bots);
    let digest = format!(
        "{fig3}|{t2:?}|{t3:?}|{}|{}|{:?}",
        stats.pages,
        stats.captchas_solved,
        campaign
            .detections
            .iter()
            .map(|d| (&d.bot_name, &d.token_kinds))
            .collect::<Vec<_>>()
    );
    (digest, bots.len(), campaign.triggers.len())
}

#[test]
fn same_seed_same_world_same_report() {
    let (a, bots_a, trig_a) = full_run(424242);
    let (b, bots_b, trig_b) = full_run(424242);
    assert_eq!(bots_a, bots_b);
    assert_eq!(trig_a, trig_b);
    assert_eq!(a, b, "full pipeline output must be bit-identical");
}

#[test]
fn different_seeds_differ() {
    let (a, _, _) = full_run(1);
    let (b, _, _) = full_run(2);
    assert_ne!(a, b, "different seeds produce different worlds");
}

#[test]
fn parallel_workers_match_serial_byte_for_byte() {
    // The parallel engine's contract: the pool running crawl units and
    // analyses, and concurrent honeypot campaigns, must all produce
    // the same canonical JSON report as the serial pipeline.
    for seed in [2022u64, 424242] {
        let serial = canonical_run(seed, 1);
        let parallel = canonical_run(seed, 4);
        assert_eq!(
            serial, parallel,
            "seed {seed}: workers=4 diverged from workers=1"
        );
    }
}

#[test]
fn virtual_time_is_isolated_per_world() {
    // Two worlds advance their own clocks independently.
    let eco1 = build_ecosystem(&EcosystemConfig::test_scale(50, 3));
    let eco2 = build_ecosystem(&EcosystemConfig::test_scale(50, 3));
    let pipeline = AuditPipeline::new(AuditConfig::default());
    let _ = pipeline.run_static_stages(&eco1.net);
    // eco2's clock has not moved.
    assert_eq!(eco2.net.clock().now().as_millis(), 0);
    assert!(eco1.net.clock().now().as_millis() > 0);
}
