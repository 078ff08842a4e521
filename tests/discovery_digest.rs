//! Pins discovery output bit-for-bit: one digest over every registry
//! target's single-message reports (`AchillesSession::run`) and session
//! reports (`AchillesSession::run_sessions`).
//!
//! The digest folds each report's canonical server path id, witness
//! fields, active client count, verification flag and notes, plus each
//! session report's Trojan slots. It leaves out `found_at` (wall clock)
//! and the constraint `TermId`s (pool-local). Counts alone cannot catch a
//! change that moves a witness value or a path id; this digest can. Any
//! change to the executor, the observers or the solver that claims
//! "results stay bit-identical" must leave [`PINNED_DIGEST`] alone, at
//! every worker count.

use achilles::{AchillesSession, RootHasher, TrojanReport};
use achilles_targets::builtin_registry;

/// The digest of the built-in registry's default-configuration discovery.
const PINNED_DIGEST: u64 = 0x790d_087a_56c8_8351;

fn fold_report(h: &mut RootHasher, report: &TrojanReport) {
    h.write_u64(report.server_path_id as u64);
    h.write_u64(report.witness_fields.len() as u64);
    for &field in &report.witness_fields {
        h.write_u64(field);
    }
    h.write_u64(report.active_clients as u64);
    h.write_u64(u64::from(report.verified));
    h.write_u64(report.notes.len() as u64);
    for note in &report.notes {
        h.write_u64(note.len() as u64);
        h.write_bytes(note.as_bytes());
    }
}

fn discovery_digest(workers: usize) -> u64 {
    let registry = builtin_registry();
    let mut h = RootHasher::new();
    for spec in registry.iter() {
        h.write_bytes(spec.name().as_bytes());
        let report = AchillesSession::new(&**spec).workers(workers).run();
        h.write_u64(report.trojans.len() as u64);
        for trojan in &report.trojans {
            fold_report(&mut h, trojan);
        }
        let sessions = AchillesSession::new(&**spec)
            .workers(workers)
            .run_sessions();
        for session in &sessions {
            h.write_bytes(session.session.as_bytes());
            h.write_u64(session.trojans.len() as u64);
            for (trojan, slots) in session.trojans.iter().zip(&session.trojan_slots) {
                fold_report(&mut h, trojan);
                h.write_u64(slots.len() as u64);
                for &slot in slots {
                    h.write_u64(slot as u64);
                }
            }
        }
    }
    h.finish()
}

#[test]
fn discovery_digest_is_pinned_at_one_worker() {
    let digest = discovery_digest(1);
    assert_eq!(digest, PINNED_DIGEST, "1-worker digest {digest:#018x}");
}

#[test]
fn discovery_digest_is_pinned_at_two_workers() {
    let digest = discovery_digest(2);
    assert_eq!(digest, PINNED_DIGEST, "2-worker digest {digest:#018x}");
}
