//! Pins replay output bit-for-bit: one digest over every registry target's
//! validation of its single-message Trojans (`validate_spec`, minimization
//! on, over `AchillesSession::run`) and of each declared session
//! (`validate_spec_sessions` over `AchillesSession::run_sessions`).
//!
//! Per replay result the digest folds the verdict, per-delivery
//! acceptance, the raw effects, per-slot generability and the signature;
//! per minimized witness its per-slot fields and wire bytes, essential
//! `(slot, field)` pairs and replay count; per corpus entry its fields,
//! slot lengths and essential indices. Signatures enter the digest
//! *without* their `trojan-slot:<s>` markers, which the second test pins
//! separately: a single message is a one-slot session, so its signature
//! carries the same slot attribution a multi-slot session's does. Any
//! change that claims "replay results stay bit-identical" must leave
//! [`PINNED_DIGEST`] alone.

use achilles::{AchillesSession, RootHasher};
use achilles_replay::{
    validate_spec, validate_spec_sessions, CrashSignature, ReplayCorpus, ValidateConfig,
    ValidationSummary,
};
use achilles_targets::builtin_registry;

/// The digest of the built-in registry's default-configuration validation.
const PINNED_DIGEST: u64 = 0x569c_b9c2_f065_9e43;

fn write_str(h: &mut RootHasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write_bytes(s.as_bytes());
}

/// `signature` without its `trojan-slot:<s>` markers.
fn unmarked(signature: &CrashSignature) -> CrashSignature {
    CrashSignature::for_session(
        &signature.system,
        signature.verdict,
        signature.slots,
        signature
            .effects
            .iter()
            .filter(|e| !e.starts_with("trojan-slot:"))
            .cloned()
            .collect(),
    )
}

fn fold_summary(h: &mut RootHasher, summary: &ValidationSummary, corpus: &ReplayCorpus) {
    h.write_u64(summary.replayed as u64);
    h.write_u64(summary.confirmed as u64);
    h.write_u64(summary.skipped_known as u64);
    h.write_u64(summary.confirmed_signatures.len() as u64);
    for r in &summary.results {
        write_str(h, r.verdict.as_str());
        h.write_u64(r.outcome.accepted_each.len() as u64);
        for &a in &r.outcome.accepted_each {
            h.write_u64(u64::from(a));
        }
        h.write_u64(r.outcome.effects.len() as u64);
        for e in &r.outcome.effects {
            write_str(h, e);
        }
        h.write_u64(r.generable_slots.len() as u64);
        for g in &r.generable_slots {
            h.write_u64(g.map_or(2, u64::from));
        }
        write_str(h, &unmarked(&r.signature).to_line());
    }
    h.write_u64(summary.minimized.len() as u64);
    for m in &summary.minimized {
        h.write_u64(m.witness.slots() as u64);
        for (fields, wire) in m.witness.fields.iter().zip(&m.witness.wire) {
            h.write_u64(fields.len() as u64);
            for &v in fields {
                h.write_u64(v);
            }
            h.write_u64(wire.len() as u64);
            h.write_bytes(wire);
        }
        h.write_u64(m.essential.len() as u64);
        for &(slot, field) in &m.essential {
            h.write_u64(slot as u64).write_u64(field as u64);
        }
        h.write_u64(m.replays as u64);
    }
    h.write_u64(corpus.len() as u64);
    h.write_u64(corpus.distinct_signatures() as u64);
    for entry in corpus.entries() {
        h.write_u64(entry.fields.len() as u64);
        for &v in &entry.fields {
            h.write_u64(v);
        }
        let slots = entry.slot_fields();
        h.write_u64(slots.len() as u64);
        for slot in &slots {
            h.write_u64(slot.len() as u64);
        }
        h.write_u64(entry.essential.len() as u64);
        for &i in &entry.essential {
            h.write_u64(i as u64);
        }
    }
}

/// Validates every registry target's single-message and session Trojans,
/// handing each (summary, corpus) pass to `visit` in registry order.
fn validate_registry(mut visit: impl FnMut(&str, &ValidationSummary, &ReplayCorpus)) {
    let config = ValidateConfig {
        minimize: true,
        ..ValidateConfig::default()
    };
    for spec in builtin_registry().iter() {
        let report = AchillesSession::new(&**spec).run();
        let mut corpus = ReplayCorpus::new();
        let summary = validate_spec(&**spec, &report.trojans, &mut corpus, &config);
        visit(spec.name(), &summary, &corpus);
        for session in AchillesSession::new(&**spec).run_sessions() {
            let mut corpus = ReplayCorpus::new();
            let summary = validate_spec_sessions(&**spec, &session, &mut corpus, &config);
            visit(&session.session, &summary, &corpus);
        }
    }
}

#[test]
fn replay_digest_is_pinned() {
    let mut h = RootHasher::new();
    validate_registry(|name, summary, corpus| {
        write_str(&mut h, name);
        fold_summary(&mut h, summary, corpus);
    });
    let digest = h.finish();
    assert_eq!(digest, PINNED_DIGEST, "replay digest {digest:#018x}");
}

#[test]
fn signatures_carry_one_trojan_slot_marker_per_trojan_slot() {
    let mut results = 0usize;
    validate_registry(|name, summary, _| {
        for r in &summary.results {
            results += 1;
            let markers: Vec<String> = r
                .signature
                .effects
                .iter()
                .filter(|e| e.starts_with("trojan-slot:"))
                .cloned()
                .collect();
            let expected: Vec<String> = r
                .trojan_slots
                .iter()
                .map(|s| format!("trojan-slot:{s}"))
                .collect();
            assert_eq!(markers, expected, "{name}: {}", r.signature);
            assert!(!r.trojan_slots.is_empty(), "{name}: every result confirms");
        }
    });
    assert!(results >= 80, "fsp alone validates 80 Trojans ({results})");
}
