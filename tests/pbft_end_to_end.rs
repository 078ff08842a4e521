//! Integration: the PBFT MAC-attack finding transfers from the symbolic
//! analysis to the concrete cluster simulation.

use achilles::{AchillesReport, AchillesSession};
use achilles_pbft::{
    classify, ClusterConfig, PbftCluster, PbftRequest, PbftSpec, PbftTrojanFamily, SubmitOutcome,
    DIGEST_PLACEHOLDER, MAC_PLACEHOLDER, N_REPLICAS,
};

fn run(spec: &PbftSpec) -> AchillesReport {
    AchillesSession::new(spec).run()
}

#[test]
fn analysis_finds_exactly_the_mac_attack() {
    let result = run(&PbftSpec::paper());
    assert!(!result.trojans.is_empty());
    assert!(result
        .trojans
        .iter()
        .all(|t| classify(t) == PbftTrojanFamily::MacAttack));
    assert!(result.trojans.iter().all(|t| t.verified));
    // Both accepting paths (read-only and agreement) carry the same Trojan
    // type — "the Trojan message discovered by Achilles appears on all
    // execution paths in the server".
    let mut notes: Vec<String> = result
        .trojans
        .iter()
        .flat_map(|t| t.notes.clone())
        .collect();
    notes.sort();
    assert!(notes.contains(&"pre_prepare".to_string()));
    assert!(notes.contains(&"read-only execute".to_string()));
}

#[test]
fn witness_analogue_triggers_recovery_in_the_cluster() {
    // The symbolic analysis runs with placeholder MACs; its witness says
    // "an authenticator differing from what the client computes is
    // accepted". The concrete analogue: a request whose real MAC is
    // corrupted. Submit it: the vulnerable primary forwards it and the
    // cluster pays the recovery cost.
    let result = run(&PbftSpec::paper());
    let witness = PbftRequest::from_field_values(&result.trojans[0].witness_fields);
    assert!(witness
        .macs
        .iter()
        .any(|&m| u64::from(m) != MAC_PLACEHOLDER));
    assert_eq!(
        witness.od, DIGEST_PLACEHOLDER,
        "everything else is well-formed"
    );

    let mut cluster = PbftCluster::new(ClusterConfig::default());
    let concrete =
        PbftRequest::correct(witness.cid, witness.rid.max(1), *b"op__").with_corrupted_mac(1);
    assert_eq!(
        cluster.submit(&concrete),
        SubmitOutcome::RecoveredThenExecuted
    );
    assert_eq!(cluster.stats().recoveries, 1);
}

#[test]
fn patched_replica_closes_the_hole_and_the_cluster_survives() {
    use achilles_pbft::PbftReplicaConfig;
    let spec = PbftSpec {
        replica: PbftReplicaConfig { verify_macs: true },
        ..PbftSpec::paper()
    };
    let result = run(&spec);
    assert_eq!(result.trojans.len(), 0);

    let cluster_config = ClusterConfig {
        primary_verifies_macs: true,
        ..ClusterConfig::default()
    };
    let mut cluster = PbftCluster::new(cluster_config);
    let bad = PbftRequest::correct(1, 1, *b"op__").with_corrupted_mac(2);
    assert_eq!(cluster.submit(&bad), SubmitOutcome::DroppedByPrimary);
    assert_eq!(cluster.stats().recoveries, 0);
}

#[test]
fn recovery_cost_dominates_at_scale() {
    let healthy = achilles_pbft::run_workload(ClusterConfig::default(), 5_000, 0);
    let attacked = achilles_pbft::run_workload(ClusterConfig::default(), 5_000, 20);
    // 5% corruption with a 200× recovery cost → ~11× slowdown.
    let ratio = healthy.throughput() / attacked.throughput();
    assert!(ratio > 5.0, "ratio {ratio}");
    // Every submitted request still executed (progress is guaranteed,
    // §6.3: recovery is expensive, not fatal).
    assert_eq!(attacked.executed().len(), 5_000);
    let _ = N_REPLICAS;
}
