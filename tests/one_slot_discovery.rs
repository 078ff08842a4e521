//! Pins "a single message is a one-slot session" for discovery.
//!
//! For every registry target, [`OneSlot`] wraps the spec, forwards every
//! hook, and re-declares the spec's message — one slot: its layout,
//! clients and mask — as its one session, served by the spec's own
//! session hooks under the message's name. So `run_sessions()` runs the
//! Trojan search `run()` runs, over the same one slot. It must find the
//! same reports — path ids, witness fields, active client counts,
//! verification and notes — and attribute every one to slot 0, at every
//! worker count.

use achilles::{AchillesSession, ReplayTarget, SessionSpec, TargetSpec, TrojanReport};
use achilles_symvm::NodeProgram;
use achilles_targets::builtin_registry;

/// A registry spec whose message is re-declared as its one session.
struct OneSlot<'a> {
    inner: &'a dyn TargetSpec,
}

impl TargetSpec for OneSlot<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn description(&self) -> &'static str {
        self.inner.description()
    }
    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        self.inner.clients()
    }
    fn message(&self) -> SessionSpec {
        self.inner.message()
    }
    fn sessions(&self) -> Vec<SessionSpec> {
        vec![self.inner.message()]
    }
    fn session_server(&self, session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        self.inner.session_server(session)
    }
    fn session_replay_target(&self, session: &str) -> Box<dyn ReplayTarget> {
        self.inner.session_replay_target(session)
    }
    fn classify(&self, report: &TrojanReport) -> String {
        self.inner.classify(report)
    }
}

/// Everything a report says except its wall clock and pool-local terms.
type ReportKey = (usize, Vec<u64>, usize, bool, Vec<String>);

fn key(report: &TrojanReport) -> ReportKey {
    (
        report.server_path_id,
        report.witness_fields.clone(),
        report.active_clients,
        report.verified,
        report.notes.clone(),
    )
}

fn one_slot_session_equals_run(workers: usize) {
    let registry = builtin_registry();
    for spec in registry.iter() {
        let name = spec.name();
        let single: Vec<ReportKey> = AchillesSession::new(&**spec)
            .workers(workers)
            .run()
            .trojans
            .iter()
            .map(key)
            .collect();
        assert!(!single.is_empty(), "{name}: run() finds Trojans");

        let wrapper = OneSlot { inner: &**spec };
        let sessions = AchillesSession::new(&wrapper)
            .workers(workers)
            .run_sessions();
        assert_eq!(sessions.len(), 1, "{name}: one declared session");
        let session = &sessions[0];
        let one_slot: Vec<ReportKey> = session.trojans.iter().map(key).collect();
        assert_eq!(
            one_slot, single,
            "{name}: the one-slot session must report exactly what run() does \
             at {workers} worker(s)"
        );
        assert_eq!(session.trojan_slots.len(), session.trojans.len());
        assert!(
            session.trojan_slots.iter().all(|slots| slots == &[0]),
            "{name}: every one-slot Trojan is attributed to slot 0: {:?}",
            session.trojan_slots
        );
    }
}

#[test]
fn one_slot_session_equals_run_at_one_worker() {
    one_slot_session_equals_run(1);
}

#[test]
fn one_slot_session_equals_run_at_two_workers() {
    one_slot_session_equals_run(2);
}
