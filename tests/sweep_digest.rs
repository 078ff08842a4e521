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
//!
//! The same witnesses are swept a second time through one [`ForkServer`]
//! per session target (fleetd's executor shape), and the fork-server's
//! work in both sweeps is pinned per target in [`PINNED_FORK_WORK`]:
//! cells, boots, session clones, shared prefix depth and root branches.
//! Timing cannot catch a fork-server that quietly boots or copies more;
//! these counts can. Finally every session report is swept with
//! [`sweep_report`] at 1, 2 and 4 workers — witnesses fan out over
//! workers, one server each — and every run must reproduce the pinned
//! store, the matrix digest and the same work, `boots` aside.

use achilles::{AchillesSession, RootHasher};
use achilles_replay::{session_from_report, ForkServer, ForkStats};
use achilles_sweep::{
    sweep_report, sweep_witness, sweep_witness_on, CampaignConfig, SchedulePlanner, SweepCache,
    SweepConfig,
};
use achilles_targets::{builtin_registry, session_bearing};

/// Size of the store's text form, in bytes.
const PINNED_STORE_BYTES: usize = 860_512;
/// Lines of the store's text form: the version header plus one per cell.
const PINNED_STORE_LINES: usize = 5_147;
/// Digest of the store's text form (its length, then its bytes).
const PINNED_STORE_DIGEST: u64 = 0xef87_6ab5_1bd6_510c;
/// Digest folded over every matrix's text form, in sweep order.
const PINNED_MATRIX_DIGEST: u64 = 0x229a_8a12_8203_8115;

/// Per session-bearing target: the summed [`ForkStats`] of the one-shot
/// sweep (a fresh server per witness) and the lifetime stats of one
/// server per session target, baselines included in both. A trie walk
/// clones once per cell but one, since the last consumer of each state
/// continues in place, and each replay first clones its server's
/// template: clones equal cells in both columns. Only `boots` differs —
/// one per witness against one per target.
const PINNED_FORK_WORK: &[(&str, ForkStats, ForkStats)] = &[
    (
        "fsp",
        ForkStats {
            plans: 4816,
            boots: 28,
            snapshot_restores: 4816,
            shared_prefix_depth_sum: 4564,
            branches: 812,
        },
        ForkStats {
            plans: 4816,
            boots: 1,
            snapshot_restores: 4816,
            shared_prefix_depth_sum: 4564,
            branches: 812,
        },
    ),
    (
        "twopc",
        ForkStats {
            plans: 92,
            boots: 1,
            snapshot_restores: 92,
            shared_prefix_depth_sum: 67,
            branches: 45,
        },
        ForkStats {
            plans: 92,
            boots: 1,
            snapshot_restores: 92,
            shared_prefix_depth_sum: 67,
            branches: 45,
        },
    ),
    (
        "gossip",
        ForkStats {
            plans: 115,
            boots: 1,
            snapshot_restores: 115,
            shared_prefix_depth_sum: 158,
            branches: 46,
        },
        ForkStats {
            plans: 115,
            boots: 1,
            snapshot_restores: 115,
            shared_prefix_depth_sum: 158,
            branches: 46,
        },
    ),
    (
        "shardexec",
        ForkStats {
            plans: 123,
            boots: 1,
            snapshot_restores: 123,
            shared_prefix_depth_sum: 162,
            branches: 46,
        },
        ForkStats {
            plans: 123,
            boots: 1,
            snapshot_restores: 123,
            shared_prefix_depth_sum: 162,
            branches: 46,
        },
    ),
];

fn write_str(h: &mut RootHasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write_bytes(s.as_bytes());
}

/// Both sweeps of every session witness of the built-in registry.
struct RegistrySweep {
    /// The one-shot sweep's store.
    cache: SweepCache,
    /// Digest over the one-shot sweep's matrices.
    matrix_digest: u64,
    /// Per target: (name, one-shot fork work, one-server fork work).
    fork_work: Vec<(&'static str, ForkStats, ForkStats)>,
}

/// Sweeps every session witness of the built-in registry into one store
/// with one-shot sweeps, and again through one server per session target
/// into a second store; the two must agree on every matrix.
fn sweep_registry() -> RegistrySweep {
    let registry = builtin_registry();
    let planner = SchedulePlanner::new(SweepConfig::default());
    let mut cache = SweepCache::new();
    let mut persistent_cache = SweepCache::new();
    let mut matrices = RootHasher::new();
    let mut fork_work = Vec::new();
    for spec in session_bearing(&registry) {
        let (mut one_shot, mut persistent) = (ForkStats::default(), ForkStats::default());
        for report in AchillesSession::new(&**spec).run_sessions() {
            let target = spec.session_replay_target(&report.session);
            let scope = format!("{}/{}", spec.name(), report.session);
            let mut server = ForkServer::new(&*target);
            for (i, trojan) in report.trojans.iter().enumerate() {
                let witness = session_from_report(&report.layouts, i, trojan)
                    .expect("session layouts are wire-encodable");
                let (matrix, stats) =
                    sweep_witness(&*target, &scope, &witness, &planner, 1, true, &mut cache);
                one_shot.absorb(&stats.fork);
                write_str(&mut matrices, &matrix.to_text());
                let (served, _) = sweep_witness_on(
                    &mut server,
                    &scope,
                    &witness,
                    &planner.plan(&witness),
                    &mut persistent_cache,
                );
                assert!(
                    served.to_text() == matrix.to_text(),
                    "{scope}: the shared server's matrix equals the one-shot sweep's"
                );
            }
            persistent.absorb(&server.lifetime_stats());
        }
        fork_work.push((spec.name(), one_shot, persistent));
    }
    RegistrySweep {
        cache,
        matrix_digest: matrices.finish(),
        fork_work,
    }
}

/// Asserts `cache`'s text form is the pinned store and round-trips.
fn assert_store_is_pinned(cache: &SweepCache, label: &str) {
    let text = cache.to_text();
    assert_eq!(text.len(), PINNED_STORE_BYTES, "{label}: store text size");
    assert_eq!(
        text.lines().count(),
        PINNED_STORE_LINES,
        "{label}: store text lines"
    );
    assert_eq!(
        cache.len() + 1,
        PINNED_STORE_LINES,
        "{label}: one line per cell"
    );
    let mut store = RootHasher::new();
    write_str(&mut store, &text);
    assert_eq!(
        store.finish(),
        PINNED_STORE_DIGEST,
        "{label}: store digest {:#018x}",
        store.finish()
    );

    let reloaded = SweepCache::from_text(&text).expect("the store's text form parses");
    assert_eq!(reloaded.len(), cache.len());
    assert!(
        reloaded.to_text() == text,
        "{label}: from_text(to_text()) renders the same bytes"
    );
}

#[test]
fn sweep_store_text_and_matrices_are_pinned() {
    let RegistrySweep {
        cache,
        matrix_digest,
        ..
    } = sweep_registry();
    assert_store_is_pinned(&cache, "one-shot");
    assert_eq!(
        matrix_digest, PINNED_MATRIX_DIGEST,
        "matrix digest {matrix_digest:#018x}"
    );
}

#[test]
fn fork_server_work_is_pinned_at_one_worker() {
    assert_eq!(
        sweep_registry().fork_work,
        PINNED_FORK_WORK,
        "per-target fork-server work"
    );
}

/// `sweep_report` fans witnesses out over its workers, one fork-server
/// each, and merges each witness's cells back in witness order: at 1, 2
/// and 4 workers, each into a fresh cache, it must reproduce the pinned
/// store and matrix digest, the same replays and cache hits, and the same
/// fork-server work except `boots` — at most one per worker that claimed
/// a witness, and exactly one at one worker.
#[test]
fn witness_fan_out_reproduces_the_pins_at_every_worker_count() {
    let registry = builtin_registry();
    let reports: Vec<_> = session_bearing(&registry)
        .into_iter()
        .map(|spec| (spec, AchillesSession::new(&**spec).run_sessions()))
        .collect();
    let mut reference = None;
    for workers in [1usize, 2, 4] {
        let config = CampaignConfig::default().with_workers(workers);
        let mut cache = SweepCache::new();
        let mut matrices = RootHasher::new();
        let mut work = Vec::new();
        for (spec, session_reports) in &reports {
            for report in session_reports {
                let sweep = sweep_report(&***spec, report, &config, &mut cache);
                for matrix in &sweep.matrices {
                    write_str(&mut matrices, &matrix.to_text());
                }
                let scope = format!("{}/{}", spec.name(), report.session);
                assert!(
                    (1..=workers.min(sweep.discovered)).contains(&sweep.fork.boots),
                    "{scope} @{workers} workers: {} boots for {} witnesses",
                    sweep.fork.boots,
                    sweep.discovered
                );
                work.push((
                    scope,
                    sweep.replayed,
                    sweep.cache_hits,
                    ForkStats {
                        boots: 0,
                        ..sweep.fork
                    },
                ));
            }
        }
        assert_store_is_pinned(&cache, &format!("sweep_report @{workers} workers"));
        let digest = matrices.finish();
        assert_eq!(
            digest, PINNED_MATRIX_DIGEST,
            "matrix digest {digest:#018x} @{workers} workers"
        );
        match &reference {
            None => reference = Some(work),
            Some(reference) => assert_eq!(
                reference, &work,
                "replays, cache hits and fork work @{workers} workers"
            ),
        }
    }
}
