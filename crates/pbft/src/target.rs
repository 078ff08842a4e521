//! The PBFT [`TargetSpec`] and concrete deployment target.
//!
//! [`PbftSpec`] exposes the MAC-attack analysis (§6.2) through the
//! protocol-agnostic trait; [`PbftTarget`] — previously hand-assembled in
//! the replay harness — boots the deterministic 4-replica cluster over
//! `SimClock` cost accounting per injection.

use std::sync::Arc;

use achilles::{
    Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec, SnapshotReplayTarget,
    TargetSpec, TrojanReport,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::analysis::{classify, PbftTrojanFamily};
use crate::client::PbftClient;
use crate::cluster::{ClusterConfig, PbftCluster, SubmitOutcome};
use crate::mac::{N_CLIENTS, N_REPLICAS};
use crate::protocol::{layout, PbftRequest, COMMAND_LEN, MESSAGE_SIZE, REQUEST_TAG};
use crate::replica::{PbftReplica, PbftReplicaConfig};

/// The PBFT deployment target: the deterministic 4-replica cluster over
/// `SimClock` cost accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct PbftTarget {
    /// Cluster cost model and patch toggle.
    pub cluster: ClusterConfig,
}

impl PbftTarget {
    /// A target over the default cost model (vulnerable primary).
    pub fn new(cluster: ClusterConfig) -> PbftTarget {
        PbftTarget { cluster }
    }
}

impl ReplayTarget for PbftTarget {
    fn name(&self) -> &'static str {
        "pbft"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![layout()]
    }

    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        PbftRequest::correct(0, 1, *b"op__").field_values()
    }

    fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
        let req = PbftRequest::from_field_values(fields);
        u64::from(req.tag) == REQUEST_TAG
            && u64::from(req.size) == MESSAGE_SIZE
            && usize::from(req.command_size) == COMMAND_LEN
            && req.extra <= 1
            && usize::from(req.replier) < N_REPLICAS
            && u64::from(req.cid) < N_CLIENTS
            && (0..N_REPLICAS).all(|r| req.mac_valid_for(r))
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(PbftForkSession::boot(self.cluster))
    }
}

/// The booted deployment behind [`PbftTarget`]: one live 4-replica
/// cluster. No end-of-plan step.
#[derive(Clone)]
struct PbftForkSession {
    cluster: PbftCluster,
}

impl PbftForkSession {
    fn boot(config: ClusterConfig) -> PbftForkSession {
        PbftForkSession {
            cluster: PbftCluster::new(config),
        }
    }
}

impl SnapshotReplayTarget for PbftForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let Ok(req) = PbftRequest::from_wire(wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        let submit = self.cluster.submit(&req);
        let (accepted, note) = match submit {
            SubmitOutcome::Executed => (true, "outcome:fast-path"),
            SubmitOutcome::RecoveredThenExecuted => (true, "outcome:recovered"),
            SubmitOutcome::DroppedByPrimary => (false, "outcome:dropped-by-primary"),
        };
        outcome.accepted_each.push(accepted);
        outcome.effects.push(note.to_string());
        if *is_witness {
            let bad = (0..N_REPLICAS).filter(|&r| !req.mac_valid_for(r)).count();
            if bad > 0 {
                outcome.effects.push(format!("bad_macs:{bad}"));
            }
        }
    }
}

/// The PBFT protocol as a [`TargetSpec`]: the analyzed replica and the
/// concrete cluster its witnesses replay against. The
/// [`AchillesSession`](achilles::AchillesSession) that runs the spec owns
/// every pipeline knob.
#[derive(Clone, Debug, Default)]
pub struct PbftSpec {
    /// The analyzed replica (its MAC-verification patch toggle).
    pub replica: PbftReplicaConfig,
    /// Cost model of the concrete cluster booted by the replay factory.
    /// Its MAC-verification toggle is *ignored*: the factory always
    /// derives it from `replica.verify_macs`, so the replayed deployment
    /// can never silently disagree with the analyzed replica.
    pub cluster: ClusterConfig,
}

impl PbftSpec {
    /// The paper's setup: vulnerable replica, default cost model — the
    /// registry default.
    pub fn paper() -> PbftSpec {
        PbftSpec::default()
    }
}

impl TargetSpec for PbftSpec {
    fn name(&self) -> &'static str {
        "pbft"
    }

    fn description(&self) -> &'static str {
        "PBFT request handling: the unauthenticated-MAC attack (§6.2)"
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(PbftClient)]
    }

    fn message(&self) -> SessionSpec {
        let request = SessionSlot::new("request", layout(), vec![0]);
        // One report per accepting replica path (read-only + pre_prepare),
        // both of the single MAC-attack type — unless the patch closes it.
        let expected = if self.replica.verify_macs { 0 } else { 2 };
        SessionSpec::new("request", vec![request]).expecting(expected)
    }

    fn session_server(&self, _session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(PbftReplica::new(self.replica.clone()))
    }

    fn session_replay_target(&self, _session: &str) -> Box<dyn ReplayTarget> {
        // Patch toggles must match the analyzed server: derive the
        // cluster's MAC check from the replica config under analysis.
        Box::new(PbftTarget::new(ClusterConfig {
            primary_verifies_macs: self.replica.verify_macs,
            ..self.cluster
        }))
    }

    fn classify(&self, report: &TrojanReport) -> String {
        match classify(report) {
            PbftTrojanFamily::MacAttack => "mac-attack".to_string(),
            PbftTrojanFamily::Other => "other".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::AchillesSession;

    #[test]
    fn spec_session_rediscovers_the_mac_attack() {
        let spec = PbftSpec::paper();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(Some(report.trojans.len()), spec.message().expected_trojans);
        for t in &report.trojans {
            assert_eq!(spec.classify(t), "mac-attack");
        }
    }

    #[test]
    fn patched_spec_expects_zero() {
        let mut spec = PbftSpec::paper();
        spec.replica.verify_macs = true;
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), 0);
        assert_eq!(spec.message().expected_trojans, Some(0));
    }

    #[test]
    fn replay_factory_mirrors_the_analysis_patch() {
        // The cluster's MAC toggle is derived from the analyzed replica
        // even when the cost-model config disagrees: a correct request
        // must be accepted by both builds, while a corrupted-MAC request
        // is dropped exactly when the analysis is patched.
        for patched in [false, true] {
            let mut spec = PbftSpec::paper();
            spec.replica.verify_macs = patched;
            spec.cluster.primary_verifies_macs = !patched; // contradicts on purpose
            let target = spec.session_replay_target("request");
            let bad = PbftRequest::correct(0, 1, *b"op__").with_corrupted_mac(1);
            let outcome = target.inject(&[(bad.to_wire(), true)]);
            assert_eq!(
                outcome.accepted_each,
                vec![!patched],
                "patched analysis ⇒ patched deployment (and vice versa)"
            );
        }
    }
}
