//! Regenerates the **§6.2/§6.3 PBFT experiment**: Achilles rediscovers the
//! MAC attack in seconds, and the cluster simulation quantifies its impact
//! (one faulty client triggers expensive recoveries that collapse everyone's
//! throughput).
//!
//! ```text
//! cargo run --release -p achilles-bench --bin pbft_analysis
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use achilles::{AchillesSession, TargetSpec};
use achilles_bench::{fmt_secs, header, row};
use achilles_pbft::{run_workload, ClusterConfig, PbftRequest, PbftSpec};

fn main() {
    header("§6.2 — PBFT analysis");
    let spec = PbftSpec::paper();
    let started = Instant::now();
    let result = AchillesSession::new(&spec).run();
    let analysis_time = started.elapsed();
    let families: BTreeSet<String> = result.trojans.iter().map(|t| spec.classify(t)).collect();
    println!("{}", row("client path predicates", result.client.len()));
    println!("{}", row("Trojan reports", result.trojans.len()));
    println!("{}", row("distinct Trojan types", families.len()));
    println!("{}", row("analysis time", fmt_secs(analysis_time)));
    for t in &result.trojans {
        let req = PbftRequest::from_field_values(&t.witness_fields);
        println!(
            "  witness: tag={} cid={} rid={} macs={:08x?} ({})",
            req.tag,
            req.cid,
            req.rid,
            req.macs,
            t.notes.join("/")
        );
    }

    header("§6.3 — MAC-attack impact (4-replica cluster, simulated time)");
    let healthy = run_workload(ClusterConfig::default(), 10_000, 0);
    let attacked = run_workload(ClusterConfig::default(), 10_000, 10);
    let patched = run_workload(
        ClusterConfig {
            primary_verifies_macs: true,
            ..ClusterConfig::default()
        },
        10_000,
        10,
    );
    println!(
        "  {:<28} {:>14} {:>12} {:>12}",
        "workload", "throughput/s", "recoveries", "dropped"
    );
    println!(
        "  {:<28} {:>14.0} {:>12} {:>12}",
        "healthy",
        healthy.throughput(),
        healthy.stats().recoveries,
        healthy.stats().dropped
    );
    println!(
        "  {:<28} {:>14.0} {:>12} {:>12}",
        "10% corrupted MACs",
        attacked.throughput(),
        attacked.stats().recoveries,
        attacked.stats().dropped
    );
    println!(
        "  {:<28} {:>14.0} {:>12} {:>12}",
        "patched (verified upfront)",
        patched.throughput(),
        patched.stats().recoveries,
        patched.stats().dropped
    );

    header("paper vs measured");
    println!("  paper:    analysis completes in a few seconds; a single Trojan type (MAC attack)");
    println!(
        "  measured: analysis in {}; {} Trojan type(s); attack cuts throughput {:.0}×",
        fmt_secs(analysis_time),
        families.len(),
        healthy.throughput() / attacked.throughput()
    );
    assert_eq!(
        families,
        BTreeSet::from(["mac-attack".to_string()]),
        "a single Trojan type: the MAC attack"
    );
    assert!(healthy.throughput() / attacked.throughput() > 10.0);
}
