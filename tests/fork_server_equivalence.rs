//! The fork-server differential suite: clone-resumed replay must be
//! bit-identical to cold-boot replay for every session-bearing spec in
//! the registry, at every worker count, under full and capped schedule
//! budgets.
//!
//! The fork-server (`achilles_replay::ForkServer::new`) boots its target
//! once, keeps that session as a template, and walks each replay's
//! delivery-prefix trie on a clone of it: cells sharing a delivery prefix
//! resume from a clone of the session at their deepest shared ancestor
//! instead of cold-booting. A sweep fans witnesses out over workers, one
//! server each. Speed is only admissible if it buys nothing else — every
//! cell's (schedule, class, signature) row, every matrix, and every
//! campaign total must match the sequential cold reference
//! (`ForkServer::cold`, one boot per cell) exactly. Symbolic discovery
//! runs once per spec; each comparison sweeps the same reports with fresh
//! caches so every cell is genuinely replayed.

use achilles::{AchillesSession, SessionReport, TargetSpec};
use achilles_replay::{session_from_report, ForkServer};
use achilles_sweep::{
    schedule_token, sweep_report, sweep_witness_on, CampaignConfig, ScheduleClass, SchedulePlanner,
    SessionSweep, SweepCache, SweepConfig,
};
use achilles_targets::builtin_registry;

/// The scheduling-independent fingerprint of one sweep: every matrix's
/// (schedule, class, signature) rows in plan order, plus the baseline
/// signature rows.
fn sweep_key(sweep: &SessionSweep) -> Vec<Vec<(String, ScheduleClass, String)>> {
    sweep
        .matrices
        .iter()
        .map(|m| {
            let mut rows: Vec<(String, ScheduleClass, String)> = vec![(
                "baseline".to_string(),
                ScheduleClass::Armed,
                m.baseline_signature.to_line(),
            )];
            rows.extend(
                m.cells
                    .iter()
                    .map(|c| (schedule_token(&c.schedule), c.class, c.signature.to_line())),
            );
            rows
        })
        .collect()
}

/// Sweeps `report` cold and forked at workers ∈ {1, 4} under `config`,
/// asserting all four runs produce identical matrices and that the fork
/// runs actually saved boots.
fn assert_fork_equivalence(
    spec: &dyn TargetSpec,
    report: &SessionReport,
    sweep: SweepConfig,
    label: &str,
) {
    let name = format!("{}/{} [{label}]", spec.name(), report.session);
    let base = CampaignConfig {
        sweep,
        ..CampaignConfig::default()
    };
    let cold = sweep_report(
        spec,
        report,
        &base.clone().without_fork(),
        &mut SweepCache::new(),
    );
    assert_eq!(
        cold.fork.boots_saved(),
        0,
        "{name}: cold replay boots every cell"
    );
    for workers in [1usize, 4] {
        let forked = sweep_report(
            spec,
            report,
            &base.clone().with_workers(workers),
            &mut SweepCache::new(),
        );
        assert_eq!(
            sweep_key(&cold),
            sweep_key(&forked),
            "{name}: fork-server matrices must be bit-identical to \
             cold boots at workers={workers}"
        );
        assert_eq!(
            (
                cold.armed,
                cold.diverged,
                cold.disarmed,
                cold.masked,
                cold.new_signature
            ),
            (
                forked.armed,
                forked.diverged,
                forked.disarmed,
                forked.masked,
                forked.new_signature
            ),
            "{name}: campaign totals match at workers={workers}"
        );
        assert_eq!(
            cold.confirmed_fault_free, forked.confirmed_fault_free,
            "{name}: baseline confirmations match at workers={workers}"
        );
        assert!(
            forked.boots_saved() > 0,
            "{name}: prefix-sharing schedules must save boots at \
             workers={workers} ({} cells, {} boots)",
            forked.fork.plans,
            forked.fork.boots,
        );
        assert_eq!(
            forked.fork.plans, forked.replayed,
            "{name}: every fresh cell, baselines included, goes through the trie"
        );
    }
}

#[test]
fn fork_server_is_bit_identical_to_cold_boot_for_every_session_spec() {
    let registry = builtin_registry();
    let mut session_specs = 0usize;
    for spec in registry.iter() {
        if spec.sessions().is_empty() {
            continue;
        }
        session_specs += 1;
        // Discovery once per spec; every comparison sweeps the same
        // reports.
        let reports = AchillesSession::new(&**spec).run_sessions();
        for report in &reports {
            // Full budget, and a deliberately tight cell budget — the
            // truncated plan must trie-share and classify identically
            // too.
            assert_fork_equivalence(&**spec, report, SweepConfig::default(), "full");
            let capped = SweepConfig {
                max_schedules: 24,
                ..SweepConfig::default()
            };
            assert_fork_equivalence(&**spec, report, capped, "capped");
        }
    }
    assert!(
        session_specs >= 2,
        "fsp and twopc both declare sessions (found {session_specs})"
    );
}

/// A fork-server keeps one booted template session across witnesses and
/// walks each replay on a clone of it. A clone of the template must be
/// indistinguishable from a fresh boot: sweeping every witness of a
/// report through one shared server must produce the matrices a fresh
/// server per witness produces, while booting the deployment only once.
#[test]
fn persistent_fork_server_reuse_across_witnesses_is_bit_identical() {
    let registry = builtin_registry();
    let mut reused = 0usize;
    for spec in registry.iter() {
        for report in AchillesSession::new(&**spec).run_sessions() {
            if report.trojans.len() < 2 {
                continue;
            }
            let target = spec.session_replay_target(&report.session);
            reused += 1;
            let scope = format!("{}/{}", spec.name(), report.session);
            let planner = SchedulePlanner::new(SweepConfig::quick());
            let witnesses: Vec<_> = report
                .trojans
                .iter()
                .enumerate()
                .map(|(i, trojan)| {
                    session_from_report(&report.layouts, i, trojan)
                        .expect("session layouts are wire-encodable")
                })
                .collect();

            let mut shared = ForkServer::new(&*target);
            let mut shared_cache = SweepCache::new();
            let mut shared_matrices = Vec::new();
            for witness in &witnesses {
                let schedules = planner.plan(witness);
                let (matrix, _) =
                    sweep_witness_on(&mut shared, &scope, witness, &schedules, &mut shared_cache);
                shared_matrices.push(matrix.to_text());
            }
            assert_eq!(
                shared.lifetime_stats().boots,
                1,
                "{scope}: one boot serves every witness"
            );
            assert!(shared.lifetime_stats().snapshot_restores > 0);

            for (witness, shared_text) in witnesses.iter().zip(&shared_matrices) {
                let mut fresh = ForkServer::new(&*target);
                let (matrix, _) = sweep_witness_on(
                    &mut fresh,
                    &scope,
                    witness,
                    &planner.plan(witness),
                    &mut SweepCache::new(),
                );
                assert_eq!(
                    &matrix.to_text(),
                    shared_text,
                    "{scope}: a clone of the booted template must equal a fresh boot"
                );
            }
        }
    }
    assert!(
        reused > 0,
        "at least one session spec has multiple witnesses"
    );
}
