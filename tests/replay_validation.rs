//! Replay validation properties: every Trojan the symbolic pipeline
//! discovers on FSP, PBFT, and Paxos must replay to its predicted oracle
//! verdict against the concrete runtime, byte-identically across
//! `workers ∈ {1, 4}` and across two runs of the same configuration; the
//! minimizer must strictly shrink multi-field witnesses while preserving
//! their crash signature.

use achilles::{AchillesSession, TargetSpec, TrojanReport};
use achilles_fsp::{is_trojan, Command, FspMessage, FspServerConfig, FspSpec, FspTarget};
use achilles_paxos::{AcceptorMode, PaxosSpec, PaxosTarget, ProposerMode};
use achilles_pbft::{PbftSpec, PbftTarget};
use achilles_replay::{
    minimize_session, replay_session, validate_trojans, FaultSchedule, ReplayCorpus, ReplayTarget,
    ReplayVerdict, SessionWitness, ValidateConfig,
};

/// Replay key for byte-level comparison: per-slot fields and wire, verdict,
/// signature.
type ReplayKey = (Vec<Vec<u64>>, Vec<Vec<u8>>, ReplayVerdict, String);

/// The Trojans one discovery over `spec` reports.
fn discover(spec: &dyn TargetSpec) -> Vec<TrojanReport> {
    AchillesSession::new(spec).run().trojans
}

fn replay_keys(
    target: &dyn ReplayTarget,
    trojans: &[TrojanReport],
    workers: usize,
) -> Vec<ReplayKey> {
    let mut corpus = ReplayCorpus::new();
    let summary = validate_trojans(
        target,
        trojans,
        &mut corpus,
        &ValidateConfig::default().with_workers(workers),
    );
    summary
        .results
        .iter()
        .map(|r| {
            (
                r.witness.fields.clone(),
                r.witness.wire.clone(),
                r.verdict,
                r.signature.to_line(),
            )
        })
        .collect()
}

#[test]
fn fsp_trojans_replay_to_predicted_verdicts_deterministically() {
    let spec = FspSpec::accuracy().with_commands(2);
    let trojans = discover(&spec);
    assert!(!trojans.is_empty());
    let target = FspTarget::new(spec.server.clone(), spec.client.glob_expansion);

    let keys1 = replay_keys(&target, &trojans, 1);
    // Every witness confirms, and the concrete oracle agrees.
    for (fields, _, verdict, _) in &keys1 {
        assert_eq!(*verdict, ReplayVerdict::ConfirmedTrojan);
        let msg = FspMessage::from_field_values(&fields[0]);
        // The runtime speaks the full protocol (Install added), so mirror
        // its effective configuration for the oracle.
        let mut effective = spec.server.clone();
        effective.commands.push(Command::Install);
        assert!(
            is_trojan(&msg, &effective, spec.client.glob_expansion),
            "oracle agrees the witness is Trojan: {fields:?}"
        );
    }
    // Byte-identical across worker counts and across runs.
    assert_eq!(keys1, replay_keys(&target, &trojans, 4));
    let rerun = discover(&spec);
    assert_eq!(keys1, replay_keys(&target, &rerun, 1));
}

#[test]
fn wildcard_mode_confirms_and_dedups_by_signature() {
    let spec = FspSpec::wildcard().with_commands(1);
    let trojans = discover(&spec);
    let target = FspTarget::new(spec.server.clone(), spec.client.glob_expansion);
    let mut corpus = ReplayCorpus::new();
    let summary = validate_trojans(&target, &trojans, &mut corpus, &ValidateConfig::default());
    assert_eq!(summary.confirmed, trojans.len(), "100% confirm");
    // The four wildcard witnesses (one per exact length) share signatures
    // beyond length: dedup strictly compresses.
    assert!(
        corpus.distinct_signatures() < trojans.len(),
        "{} signatures for {} witnesses",
        corpus.distinct_signatures(),
        trojans.len()
    );
}

#[test]
fn pbft_trojans_replay_to_recovery() {
    let trojans = discover(&PbftSpec::paper());
    assert_eq!(trojans.len(), 2);
    let target = PbftTarget::default();
    let keys1 = replay_keys(&target, &trojans, 1);
    for (_, _, verdict, sig) in &keys1 {
        assert_eq!(*verdict, ReplayVerdict::ConfirmedTrojan);
        assert!(sig.contains("outcome:recovered"), "{sig}");
    }
    assert_eq!(keys1, replay_keys(&target, &trojans, 4));
    // Both accepting paths map to the single MAC-attack bug class.
    let mut corpus = ReplayCorpus::new();
    validate_trojans(&target, &trojans, &mut corpus, &ValidateConfig::default());
    assert_eq!(corpus.distinct_signatures(), 1);
}

#[test]
fn paxos_trojan_replays_against_the_engine() {
    let trojans = discover(&PaxosSpec::new(
        ProposerMode::Concrete(5, 7),
        AcceptorMode::Concrete(5),
    ));
    assert_eq!(trojans.len(), 1);
    let target = PaxosTarget::new(5, ProposerMode::Concrete(5, 7));
    let keys1 = replay_keys(&target, &trojans, 1);
    assert_eq!(keys1[0].2, ReplayVerdict::ConfirmedTrojan);
    assert_eq!(keys1, replay_keys(&target, &trojans, 4));
}

#[test]
fn minimizer_strictly_shrinks_and_preserves_signature() {
    // Multi-field witness: reported length 4, real length 1, junk beyond
    // the NUL — the length and NUL position matter, the junk does not.
    let target = FspTarget::new(FspServerConfig::default(), false);
    let mut msg = FspMessage::request(Command::Stat, b"a");
    msg.bb_len = 4;
    msg.buf = [b'a', 0, b'X', b'Y'];
    let witness = SessionWitness {
        index: 0,
        server_path_id: 0,
        fields: vec![msg.field_values()],
        wire: vec![msg.to_wire()],
    };
    let none = FaultSchedule::none();
    let full = replay_session(&target, &witness, &none);
    assert_eq!(full.verdict, ReplayVerdict::ConfirmedTrojan);
    let min = minimize_session(&target, &witness, &none, &full.signature);
    assert!(
        min.strictly_shrunk(),
        "{} of {} fields essential",
        min.essential.len(),
        min.original_delta.len()
    );
    // The minimized witness reproduces the signature exactly.
    let again = replay_session(&target, &min.witness, &none);
    assert_eq!(again.signature, full.signature);
    assert_eq!(again.verdict, ReplayVerdict::ConfirmedTrojan);
}

#[test]
fn corpus_makes_revalidation_incremental_across_save_load() {
    let spec = FspSpec::accuracy().with_commands(1);
    let trojans = discover(&spec);
    let target = FspTarget::new(spec.server.clone(), false);
    let mut corpus = ReplayCorpus::new();
    let first = validate_trojans(&target, &trojans, &mut corpus, &ValidateConfig::default());
    assert_eq!(first.skipped_known, 0);
    assert_eq!(first.confirmed, trojans.len());

    // Round-trip the corpus through its serialized form (as a CI cache
    // would) and re-validate: nothing replays.
    let mut reloaded =
        ReplayCorpus::from_text(&corpus.to_text()).expect("a saved corpus parses back");
    assert_eq!(reloaded.len(), corpus.len());
    let second = validate_trojans(&target, &trojans, &mut reloaded, &ValidateConfig::default());
    assert_eq!(second.replayed, 0);
    assert_eq!(second.skipped_known, trojans.len());
}
