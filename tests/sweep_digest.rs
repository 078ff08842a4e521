//! Pins the sweep store's bytes: every session-bearing registry target's
//! witnesses swept into one [`SweepCache`] (default planner, one worker,
//! fork-server on), then the store's text form and every sensitivity
//! matrix folded into digests.
//!
//! The store's text form is what `achilles-fleetd --state DIR` and
//! `sweep_campaign --corpus DIR` persist, and caches written by an older
//! build must load unchanged. So any change to how the store is kept in
//! memory must leave [`PINNED_STORE_DIGEST`] alone, and any change that
//! claims "sweep results stay bit-identical" must leave
//! [`PINNED_MATRIX_DIGEST`] alone.

use achilles::{AchillesSession, RootHasher};
use achilles_replay::session_from_report;
use achilles_sweep::{sweep_witness, SchedulePlanner, SweepCache, SweepConfig};
use achilles_targets::{builtin_registry, session_bearing};

/// Size of the store's text form, in bytes.
const PINNED_STORE_BYTES: usize = 860_512;
/// Lines of the store's text form: the version header plus one per cell.
const PINNED_STORE_LINES: usize = 5_147;
/// Digest of the store's text form (its length, then its bytes).
const PINNED_STORE_DIGEST: u64 = 0xef87_6ab5_1bd6_510c;
/// Digest folded over every matrix's text form, in sweep order.
const PINNED_MATRIX_DIGEST: u64 = 0x229a_8a12_8203_8115;

fn write_str(h: &mut RootHasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write_bytes(s.as_bytes());
}

/// Sweeps every session witness of the built-in registry into one store,
/// returning the store and the matrix digest.
fn sweep_registry() -> (SweepCache, u64) {
    let registry = builtin_registry();
    let planner = SchedulePlanner::new(SweepConfig::default());
    let mut cache = SweepCache::new();
    let mut matrices = RootHasher::new();
    for spec in session_bearing(&registry) {
        for report in AchillesSession::new(&**spec).run_sessions() {
            let target = spec.session_replay_target(&report.session);
            let scope = format!("{}/{}", spec.name(), report.session);
            for (i, trojan) in report.trojans.iter().enumerate() {
                let witness = session_from_report(&report.layouts, i, trojan)
                    .expect("session layouts are wire-encodable");
                let (matrix, _) =
                    sweep_witness(&*target, &scope, &witness, &planner, 1, true, &mut cache);
                write_str(&mut matrices, &matrix.to_text());
            }
        }
    }
    (cache, matrices.finish())
}

#[test]
fn sweep_store_text_and_matrices_are_pinned() {
    let (cache, matrix_digest) = sweep_registry();
    let text = cache.to_text();
    assert_eq!(text.len(), PINNED_STORE_BYTES, "store text size");
    assert_eq!(text.lines().count(), PINNED_STORE_LINES, "store text lines");
    assert_eq!(cache.len() + 1, PINNED_STORE_LINES, "one line per cell");
    let mut store = RootHasher::new();
    write_str(&mut store, &text);
    assert_eq!(
        store.finish(),
        PINNED_STORE_DIGEST,
        "store digest {:#018x}",
        store.finish()
    );
    assert_eq!(
        matrix_digest, PINNED_MATRIX_DIGEST,
        "matrix digest {matrix_digest:#018x}"
    );

    let reloaded = SweepCache::from_text(&text).expect("the store's text form parses");
    assert_eq!(reloaded.len(), cache.len());
    assert!(
        reloaded.to_text() == text,
        "from_text(to_text()) renders the same bytes"
    );
}
