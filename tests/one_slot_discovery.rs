//! Pins "a single message is a one-slot session" for discovery.
//!
//! For every registry target, [`OneSlot`] wraps the spec, forwards every
//! hook, and declares one session of one slot: the spec's layout, all of
//! its clients, and the mask a session over the spec uses. Its session
//! clients and session server are the spec's clients and server, so
//! `run_sessions()` runs the Trojan search `run()` runs, over the same one
//! slot. It must find the same reports — path ids, witness fields, active
//! client counts, verification and notes — and attribute every one to
//! slot 0, at every worker count.

use std::sync::Arc;

use achilles::{
    AchillesConfig, AchillesSession, FieldMask, LocalStateMode, ReplayTarget, SessionSlot,
    SessionSpec, TargetSpec, TrojanReport, WireError,
};
use achilles_symvm::{MessageLayout, NodeProgram};
use achilles_targets::builtin_registry;

/// A registry spec re-declared as one one-slot session.
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
    fn layout(&self) -> Arc<MessageLayout> {
        self.inner.layout()
    }
    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        self.inner.clients()
    }
    fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
        self.inner.server()
    }
    fn mask(&self) -> FieldMask {
        self.inner.mask()
    }
    fn analysis_config(&self) -> AchillesConfig {
        self.inner.analysis_config()
    }
    fn local_state_modes(&self) -> Vec<LocalStateMode> {
        self.inner.local_state_modes()
    }
    fn expected_trojans(&self) -> Option<usize> {
        self.inner.expected_trojans()
    }
    fn classify(&self, report: &TrojanReport) -> String {
        self.inner.classify(report)
    }
    fn replay_target(&self) -> Box<dyn ReplayTarget> {
        self.inner.replay_target()
    }
    fn encode(&self, fields: &[u64]) -> Result<Vec<u8>, WireError> {
        self.inner.encode(fields)
    }
    fn decode(&self, wire: &[u8]) -> Result<Vec<u64>, WireError> {
        self.inner.decode(wire)
    }
    fn sessions(&self) -> Vec<SessionSpec> {
        let clients = (0..self.inner.clients().len()).collect();
        let mut slot = SessionSlot::new("message", self.inner.layout(), clients);
        slot.mask = AchillesSession::new(self.inner).config().mask.clone();
        vec![SessionSpec::new("one-slot", vec![slot])]
    }
    fn session_clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        self.inner.clients()
    }
    fn session_server(&self, _name: &str) -> Box<dyn NodeProgram + Sync + '_> {
        self.inner.server()
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
