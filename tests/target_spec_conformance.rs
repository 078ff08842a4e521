//! The `TargetSpec` conformance suite: every protocol in the built-in
//! registry must clear the same bar, with no protocol-specific code in
//! this file.
//!
//! For each registered spec, the contract is:
//!
//! 0. **Declarations** — [`TargetSpec::message`] is one slot, named apart
//!    from every declared session; every slot's client indices lie inside
//!    [`TargetSpec::clients`], and every client is referenced by some
//!    slot.
//! 1. **Discovery** — an [`AchillesSession`] under the spec's default
//!    configuration discovers at least one Trojan (and exactly the
//!    message's `expected_trojans` when the spec declares the count), with
//!    every witness verified against the client predicate.
//! 2. **Concrete confirmation** — 100% of the discovered Trojans replay to
//!    [`ReplayVerdict::ConfirmedTrojan`] against the message's
//!    [`session_replay_target`](achilles::TargetSpec::session_replay_target)
//!    deployment.
//! 3. **Corpus round-trip** — the confirmed witnesses survive
//!    serialization: reloading the corpus text reproduces the entries and
//!    makes re-validation fully incremental (everything skipped).
//! 4. **Codec coherence** — every witness's slot messages encode to wire
//!    bytes and decode back to the same field values through their slot
//!    layouts, and every replay target's per-slot metadata agrees with the
//!    spec: one slot layout per declared slot (one for the message), each
//!    with a client-generable benign message.
//!
//! Specs that declare [`TargetSpec::sessions`] additionally clear the
//! session contract: the same discovery, confirmation and corpus contract
//! per session through [`AchillesSession::run_sessions`] (under
//! [`FaultSchedule::none`], with slot attribution) — and a
//! **fault-schedule sensitivity contract**: sweeping the witness's
//! schedule space must find at least one arming and one disarming
//! schedule, and every schedule that drops an arming slot must classify
//! as `Disarmed` (dropping the message that carries the poison defuses
//! the Trojan, by construction).
//!
//! Session targets that **report state roots**
//! ([`ReplayTarget::reports_state_roots`](achilles::ReplayTarget::reports_state_roots))
//! additionally clear the divergence contract: the all-benign fault-free
//! session leaves every node's root in agreement (`root:agree:` in the
//! effects), sweeping a confirmed Trojan finds at least one `Diverged`
//! schedule, and every schedule that drops an arming slot restores
//! agreement — removing the poison removes the split.
//!
//! Every replay target — the message's and one per declared session —
//! also clears the clone law on the session
//! [`ReplayTarget::boot`](achilles::ReplayTarget::boot) returns: a clone
//! taken at boot replays the benign sequence exactly like a fresh boot,
//! its source still does after the clone was driven, and a clone taken
//! after slot 0 resumes exactly like the uncloned run — the law the sweep
//! fork-server's correctness rests on. A session whose derived `Clone`
//! aliases live state (an `Arc<Mutex<_>>`) fails it.
//!
//! Adding a protocol crate + one registry registration automatically puts
//! it under this contract — that is the point of the API.

use std::sync::{Arc, Mutex};

use achilles::{
    fields_to_wire, split_fields_by_counts, wire_to_fields, AchillesSession, Delivery,
    InjectionOutcome, ReplayTarget, SessionSpec, SnapshotReplayTarget, TargetSpec, TrojanReport,
};
use achilles_replay::{
    replay_session, validate_spec, validate_spec_sessions, FaultSchedule, ReplayCorpus,
    ReplayVerdict, SessionWitness, ValidateConfig, ValidationSummary,
};
use achilles_targets::builtin_registry;

/// Every replay target of `spec` — one `session_replay_target()` for the
/// message and one per declared session — labelled, with the per-slot
/// field counts the spec declares for it.
fn replay_targets(spec: &dyn TargetSpec) -> Vec<(String, Box<dyn ReplayTarget>, Vec<usize>)> {
    std::iter::once(spec.message())
        .chain(spec.sessions())
        .map(|declared| {
            (
                format!("{}/{}", spec.name(), declared.name),
                spec.session_replay_target(&declared.name),
                declared.slot_field_counts(),
            )
        })
        .collect()
}

/// The all-benign witness of `target`: every slot's benign message.
fn benign_witness(label: &str, target: &dyn ReplayTarget) -> SessionWitness {
    let layouts = target.slot_layouts();
    let fields: Vec<Vec<u64>> = (0..layouts.len())
        .map(|slot| target.slot_benign_fields(slot))
        .collect();
    let wire: Vec<Vec<u8>> = fields
        .iter()
        .zip(&layouts)
        .map(|(f, layout)| {
            fields_to_wire(layout, f)
                .unwrap_or_else(|e| panic!("{label}: benign slot encodes: {e:?}"))
        })
        .collect();
    SessionWitness {
        index: 0,
        server_path_id: 0,
        fields,
        wire,
    }
}

#[test]
fn registry_contains_the_shipped_protocols() {
    let registry = builtin_registry();
    for expected in ["fsp", "pbft", "paxos", "twopc", "gossip", "shardexec"] {
        assert!(
            registry.get(expected).is_some(),
            "{expected} missing from the built-in registry"
        );
    }
}

#[test]
fn every_spec_declares_one_message_and_in_range_clients() {
    let registry = builtin_registry();
    for spec in registry.iter() {
        let name = spec.name();
        let message = spec.message();
        assert_eq!(message.slots.len(), 1, "{name}: the message is one slot");
        let sessions = spec.sessions();
        assert!(
            sessions.iter().all(|s| s.name != message.name),
            "{name}: the message's name {:?} must differ from every session's",
            message.name
        );
        let clients = spec.clients().len();
        let mut referenced = vec![false; clients];
        for declared in std::iter::once(&message).chain(&sessions) {
            for slot in &declared.slots {
                for &ci in &slot.clients {
                    assert!(
                        ci < clients,
                        "{name}/{}: slot {:?} references client {ci}, but the spec \
                         declares {clients}",
                        declared.name,
                        slot.name
                    );
                    referenced[ci] = true;
                }
            }
        }
        assert!(
            referenced.iter().all(|&r| r),
            "{name}: every client must be referenced by some slot: {referenced:?}"
        );
    }
}

#[test]
fn every_registered_spec_meets_the_conformance_contract() {
    let registry = builtin_registry();
    assert!(!registry.is_empty());
    for spec in registry.iter() {
        conformance(&**spec);
    }
}

#[test]
fn every_declared_session_meets_the_session_contract() {
    let registry = builtin_registry();
    let mut specs_with_sessions = 0usize;
    for spec in registry.iter() {
        if spec.sessions().is_empty() {
            continue;
        }
        specs_with_sessions += 1;
        session_conformance(&**spec);
    }
    assert!(
        specs_with_sessions >= 2,
        "fsp and twopc both declare sessions"
    );
}

/// The clone law the fork-server rests on, checked on `target`'s
/// all-benign session: a clone taken at boot replays exactly like a fresh
/// boot; after that clone was driven, its source still does; and a clone
/// taken after slot 0 resumes exactly like the uncloned run. Returns the
/// first broken check.
fn clone_law(label: &str, target: &dyn ReplayTarget) -> Result<(), String> {
    let deliveries: Vec<Delivery> = benign_witness(label, target)
        .wire
        .into_iter()
        .map(|wire| (wire, true))
        .collect();
    let fresh = target.inject(&deliveries);
    let resume = |session: &mut dyn SnapshotReplayTarget, mut outcome: InjectionOutcome| {
        let done = outcome.accepted_each.len();
        for delivery in &deliveries[done..] {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    };
    let check = |holds: bool, law: &str| {
        if holds {
            Ok(())
        } else {
            Err(format!("{label}: {law}"))
        }
    };

    let mut source = target.boot();
    let at_boot = resume(source.clone_session().as_mut(), InjectionOutcome::default());
    check(
        at_boot == fresh,
        "a clone taken at boot must replay like a fresh boot",
    )?;
    check(
        resume(source.as_mut(), InjectionOutcome::default()) == fresh,
        "after its clone was driven, the source must still replay like a fresh boot",
    )?;

    let mut source = target.boot();
    let mut after_slot0 = InjectionOutcome::default();
    source.deliver(&deliveries[0], &mut after_slot0);
    let resumed = resume(source.clone_session().as_mut(), after_slot0.clone());
    let uncloned = resume(source.as_mut(), after_slot0);
    check(
        resumed == uncloned && uncloned == fresh,
        "a clone taken after slot 0 must resume like the uncloned run",
    )
}

#[test]
fn every_replay_target_honors_the_clone_law() {
    // The per-slot benign messages stand in for the witness so the law
    // costs no symbolic discovery.
    let registry = builtin_registry();
    let mut checked = 0usize;
    for spec in registry.iter() {
        for (label, target, _) in replay_targets(&**spec) {
            checked += 1;
            if let Err(broken) = clone_law(&label, &*target) {
                panic!("{broken}");
            }
        }
    }
    assert!(
        checked >= 10,
        "six single-message and four session replay targets (found {checked})"
    );
}

/// A deliberately broken deployment: its session derives `Clone` over an
/// `Arc<Mutex<_>>`, so every clone shares its source's delivery count.
struct AliasingTarget;

impl ReplayTarget for AliasingTarget {
    fn name(&self) -> &'static str {
        "aliasing"
    }
    fn slot_layouts(&self) -> Vec<Arc<achilles_symvm::MessageLayout>> {
        vec![achilles_symvm::MessageLayout::builder("msg")
            .field("op", achilles_solver::Width::W8)
            .build()]
    }
    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        vec![1]
    }
    fn slot_generable(&self, _slot: usize, _fields: &[u64]) -> bool {
        true
    }
    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(AliasingSession::default())
    }
}

#[derive(Clone, Default)]
struct AliasingSession {
    delivered: Arc<Mutex<usize>>,
}

impl SnapshotReplayTarget for AliasingSession {
    fn deliver(&mut self, _delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let mut delivered = self.delivered.lock().expect("delivery count lock");
        *delivered += 1;
        outcome.accepted_each.push(*delivered == 1);
        outcome.effects.push(format!("delivered:{delivered}"));
    }
}

#[test]
fn the_clone_law_rejects_a_clone_that_aliases_its_source() {
    let broken = clone_law("aliasing", &AliasingTarget).expect_err("an aliasing clone is caught");
    assert!(
        broken.contains("after its clone was driven"),
        "the driven clone leaks into its source: {broken}"
    );
}

#[test]
fn every_root_reporting_session_target_honors_the_divergence_contract() {
    // Multi-node deployments that observe per-node state roots must
    // (a) agree on the all-benign fault-free session, (b) split under at
    // least one fault schedule of a confirmed Trojan sweep, and (c) return
    // to agreement on every schedule that drops an arming slot — the
    // poison, not the fault machinery, is what divides the replicas.
    let registry = builtin_registry();
    let mut root_reporting = 0usize;
    for spec in registry.iter() {
        let name = spec.name();
        let reporting: Vec<String> = spec
            .sessions()
            .iter()
            .filter(|d| spec.session_replay_target(&d.name).reports_state_roots())
            .map(|d| d.name.clone())
            .collect();
        if reporting.is_empty() {
            continue;
        }
        root_reporting += 1;

        // --- (a) Fault-free benign agreement. ------------------------------
        for session in &reporting {
            let sname = format!("{name}/{session}");
            let target = spec.session_replay_target(session);
            let witness = benign_witness(&sname, &*target);
            let benign = replay_session(&*target, &witness, &FaultSchedule::none());
            assert!(
                !benign.signature.diverged(),
                "{sname}: the all-benign fault-free session must not diverge"
            );
            assert!(
                benign
                    .outcome
                    .effects
                    .iter()
                    .any(|e| e.starts_with("root:agree:")),
                "{sname}: a root-reporting target must report agreement \
                 explicitly (effects: {:?})",
                benign.outcome.effects
            );
        }

        // --- (b) + (c): sweep a real Trojan. -------------------------------
        let sweeps = achilles_sweep::run_campaign(
            &**spec,
            &achilles_sweep::CampaignConfig::default(),
            &mut achilles_sweep::SweepCache::new(),
        );
        for sweep in &sweeps {
            if !reporting.contains(&sweep.session) {
                continue;
            }
            let sname = format!("{name}/{}", sweep.session);
            assert!(
                sweep.diverged >= 1,
                "{sname}: at least one schedule must leave the replicas \
                 silently split (Diverged)"
            );
            assert!(
                sweep
                    .matrices
                    .iter()
                    .any(|m| m.baseline_signature.diverged()),
                "{sname}: a confirmed Trojan's fault-free baseline records \
                 the split it causes"
            );
            for matrix in &sweep.matrices {
                for cell in &matrix.cells {
                    let drops_arming_slot =
                        cell.schedule.slots.iter().enumerate().any(|(slot, fault)| {
                            fault.drop && matrix.baseline_trojan_slots.contains(&slot)
                        });
                    if drops_arming_slot {
                        assert!(
                            !cell.signature.diverged(),
                            "{sname}: dropping the arming slot must restore \
                             replica agreement (schedule {:?})",
                            achilles_sweep::schedule_token(&cell.schedule),
                        );
                    }
                }
            }
        }
    }
    assert!(
        root_reporting >= 1,
        "shardexec reports state roots (found {root_reporting})"
    );
}

fn session_conformance(spec: &dyn TargetSpec) {
    let name = spec.name();
    let declared = spec.sessions();
    let reports = AchillesSession::new(spec).run_sessions();
    assert_eq!(reports.len(), declared.len(), "{name}: one report/session");
    for (session, report) in declared.iter().zip(&reports) {
        let sname = format!("{name}/{}", session.name);
        assert_eq!(report.session, session.name, "{sname}: provenance");
        discovery_contract(
            &sname,
            session,
            &report.trojans,
            &report.trojan_slots,
            |corpus| validate_spec_sessions(spec, report, corpus, &ValidateConfig::default()),
        );
    }

    // --- Fault-schedule sensitivity contract. -------------------------------
    let sweeps = achilles_sweep::run_campaign(
        spec,
        &achilles_sweep::CampaignConfig::default(),
        &mut achilles_sweep::SweepCache::new(),
    );
    assert_eq!(sweeps.len(), declared.len(), "{name}: one sweep/session");
    for sweep in &sweeps {
        let sname = format!("{name}/{}", sweep.session);
        assert_eq!(
            sweep.confirmed_fault_free, sweep.discovered,
            "{sname}: every session Trojan confirms under the fault-free baseline"
        );
        assert!(
            sweep.armed + sweep.diverged >= 1,
            "{sname}: some schedule must leave the Trojan armed (or armed \
             and diverging, for root-reporting targets)"
        );
        assert!(
            sweep.disarmed >= 1,
            "{sname}: some schedule must disarm the Trojan"
        );
        for matrix in &sweep.matrices {
            for cell in &matrix.cells {
                // Drop-the-arming-slot disarms: a schedule whose only
                // faults are drops, at least one of them on a slot the
                // baseline attributes the Trojan to, removes the poison
                // from the wire and must classify as Disarmed.
                let drops_arming_slot =
                    cell.schedule.slots.iter().enumerate().any(|(slot, fault)| {
                        fault.drop && matrix.baseline_trojan_slots.contains(&slot)
                    });
                if drops_arming_slot {
                    assert_eq!(
                        cell.class,
                        achilles_sweep::ScheduleClass::Disarmed,
                        "{sname}: dropping the arming slot must disarm \
                         (schedule {:?})",
                        achilles_sweep::schedule_token(&cell.schedule),
                    );
                }
            }
        }
    }
}

fn conformance(spec: &dyn TargetSpec) {
    let name = spec.name();

    // --- Metadata sanity. --------------------------------------------------
    assert!(!name.is_empty());
    assert!(!spec.clients().is_empty(), "{name}: no client programs");
    for (label, target, field_counts) in replay_targets(spec) {
        assert_eq!(target.name(), name, "{label}: spec/target name mismatch");
        let layouts = target.slot_layouts();
        assert_eq!(
            layouts.iter().map(|l| l.num_fields()).collect::<Vec<_>>(),
            field_counts,
            "{label}: target slot layouts must match the spec's"
        );
        for slot in 0..layouts.len() {
            assert!(
                target.slot_generable(slot, &target.slot_benign_fields(slot)),
                "{label}: slot {slot}'s benign message must be client-generable"
            );
        }
    }

    // --- 1–4 over the single message (a one-slot session). -----------------
    let report = AchillesSession::new(spec).run();
    for t in &report.trojans {
        assert!(!spec.classify(t).is_empty(), "{name}: unclassifiable");
    }
    let message = spec.message();
    discovery_contract(
        &format!("{name}/{}", message.name),
        &message,
        &report.trojans,
        &vec![vec![0]; report.trojans.len()],
        |corpus| validate_spec(spec, &report.trojans, corpus, &ValidateConfig::default()),
    );
}

/// The discovery → confirmation → corpus contract for one declaration —
/// the message or a session — whose discovery found `trojans`, each
/// attributed to `trojan_slots`; `validate` replays them into a corpus
/// through the declaration's registry-driven validation entry point.
fn discovery_contract(
    label: &str,
    declared: &SessionSpec,
    trojans: &[TrojanReport],
    trojan_slots: &[Vec<usize>],
    validate: impl Fn(&mut ReplayCorpus) -> ValidationSummary,
) {
    // --- 1. Discovery. -----------------------------------------------------
    assert!(
        !trojans.is_empty(),
        "{label}: every declaration must host at least one Trojan"
    );
    if let Some(expected) = declared.expected_trojans {
        assert_eq!(trojans.len(), expected, "{label}: expected count");
    }
    assert_eq!(
        trojans.len(),
        trojan_slots.len(),
        "{label}: slot attribution present for every report"
    );
    assert!(
        trojan_slots.iter().all(|s| !s.is_empty()),
        "{label}: every report names its Trojan slots"
    );
    for t in trojans {
        assert!(t.verified, "{label}: unverified witness (false positive?)");
    }

    // --- 4. Codec coherence (checked before replay mutates anything). ------
    for t in trojans {
        let parts = split_fields_by_counts(&t.witness_fields, &declared.slot_field_counts());
        for (slot, fields) in declared.slots.iter().zip(parts) {
            let wire = fields_to_wire(&slot.layout, &fields)
                .unwrap_or_else(|e| panic!("{label}: witness must encode: {e:?}"));
            let back = wire_to_fields(&slot.layout, &wire)
                .unwrap_or_else(|e| panic!("{label}: wire must decode: {e:?}"));
            assert_eq!(back, fields, "{label}/{}: codec round-trip", slot.name);
        }
    }

    // --- 2. Concrete confirmation under the fault-free schedule. -----------
    let mut corpus = ReplayCorpus::new();
    let summary = validate(&mut corpus);
    assert_eq!(summary.replayed, trojans.len(), "{label}: all replay");
    assert_eq!(
        summary.confirmed,
        trojans.len(),
        "{label}: 100% of symbolic Trojans must confirm concretely"
    );
    assert!(summary
        .results
        .iter()
        .all(|r| r.verdict == ReplayVerdict::ConfirmedTrojan));
    assert!(corpus.distinct_signatures() >= 1, "{label}: no signatures");
    // The concrete slot attribution overlaps the symbolic one.
    for (result, slots) in summary.results.iter().zip(trojan_slots) {
        assert!(
            result.trojan_slots.iter().any(|s| slots.contains(s)),
            "{label}: concrete and symbolic slot attribution agree on at \
             least one slot ({:?} vs {:?})",
            result.trojan_slots,
            slots
        );
    }

    // --- 3. Corpus round-trip + incremental re-validation. -----------------
    let mut reloaded =
        ReplayCorpus::from_text(&corpus.to_text()).expect("a saved corpus parses back");
    assert_eq!(
        reloaded.entries(),
        corpus.entries(),
        "{label}: corpus text round-trip"
    );
    let second = validate(&mut reloaded);
    assert_eq!(second.replayed, 0, "{label}: reloaded corpus skips all");
    assert_eq!(
        second.skipped_known,
        trojans.len(),
        "{label}: incremental re-validation"
    );
}
