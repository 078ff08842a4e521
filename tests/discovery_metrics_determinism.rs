//! What [`Class::Deterministic`] promises for discovery, and that every
//! counter reaches the registry exactly once, checked in a process of its
//! own: the metrics registry is process-global, so this binary holds one
//! test and nothing else records into it.
//!
//! - For every registry target, the deterministic section that `run()`
//!   leaves in an empty registry, and the one `run_sessions()` leaves, is
//!   identical at workers 1, 2 and 4.
//! - At one worker the registry equals the typed structs the runs return:
//!   the solver series equal the engine solver's own [`SolverStats`]
//!   (client exploration, pre-processing and the server search all run on
//!   it, so nothing is missed and nothing is counted twice), the
//!   exploration series equal the report's client plus server
//!   [`ExploreStats`], the Trojan-search series equal its
//!   [`TrojanSearchStats`], and after a `run()` and a `run_sessions()` on
//!   two engines every solver and shared-cache series is the sum over both.

use achilles::{AchillesSession, TrojanSearchStats};
use achilles_obs::Class;
use achilles_solver::{SharedCacheStats, SolverStats};
use achilles_symvm::ExploreStats;
use achilles_targets::builtin_registry;

/// Named counters, in the order a family's series are listed.
type Series = Vec<(&'static str, u64)>;

#[rustfmt::skip]
fn solver_series(s: &SolverStats) -> Series {
    vec![
        ("achilles_solver_queries_total", s.queries),
        ("achilles_solver_cache_hits_total", s.cache_hits),
        ("achilles_solver_shared_hits_total", s.shared_hits),
        ("achilles_solver_presorted_queries_total", s.presorted_queries),
        ("achilles_solver_sat_total", s.sat),
        ("achilles_solver_unsat_total", s.unsat),
        ("achilles_solver_unknown_total", s.unknown),
        ("achilles_solver_core_subsumption_hits_total", s.core_subsumption_hits),
        ("achilles_solver_search_decisions_total", s.search.decisions),
        ("achilles_solver_search_propagations_total", s.search.propagations),
        ("achilles_solver_search_deferred_checks_total", s.search.deferred_checks),
        ("achilles_solver_search_verification_failures_total", s.search.verification_failures),
        ("achilles_solver_search_certificate_steps_total", s.search.certificate_steps),
        ("achilles_solver_search_normalized_total", s.search.normalized),
        ("achilles_solver_search_literals_asserted_total", s.search.literals_asserted),
        ("achilles_solver_search_clause_evals_total", s.search.clause_evals),
        ("achilles_solver_solve_time_ns_total", s.solve_time.as_nanos() as u64),
    ]
}

#[rustfmt::skip]
fn explore_series(e: &ExploreStats) -> Series {
    vec![
        ("achilles_explore_runs_total", e.runs as u64),
        ("achilles_explore_completed_total", e.completed as u64),
        ("achilles_explore_infeasible_total", e.infeasible as u64),
        ("achilles_explore_pruned_total", e.pruned as u64),
        ("achilles_explore_dropped_total", e.dropped as u64),
        ("achilles_explore_depth_exhausted_total", e.depth_exhausted as u64),
        ("achilles_explore_branch_checks_total", e.branch_checks),
        ("achilles_explore_unknown_branches_total", e.unknown_branches),
        ("achilles_explore_model_reuse_hits_total", e.model_reuse_hits),
        ("achilles_explore_steals_total", e.steals),
        ("achilles_explore_cross_phase_cache_hits_total", e.cross_phase_cache_hits),
        ("achilles_explore_wall_ns_total", e.wall_time.as_nanos() as u64),
    ]
}

#[rustfmt::skip]
fn trojan_series(t: &TrojanSearchStats) -> Series {
    vec![
        ("achilles_trojan_search_direct_drops_total", t.direct_drops),
        ("achilles_trojan_search_matrix_drops_total", t.matrix_drops),
        ("achilles_trojan_search_checks_total", t.trojan_checks),
        ("achilles_trojan_search_paths_pruned_total", t.paths_pruned),
        ("achilles_trojan_search_witness_retries_total", t.witness_retries),
        ("achilles_trojan_search_model_answers_total", t.model_answers),
    ]
}

#[rustfmt::skip]
fn shared_cache_series(c: &SharedCacheStats) -> Series {
    vec![
        ("achilles_shared_cache_hits_total", c.hits),
        ("achilles_shared_cache_cross_epoch_hits_total", c.cross_epoch_hits),
        ("achilles_shared_cache_misses_total", c.misses),
        ("achilles_shared_cache_inserts_total", c.inserts),
        ("achilles_shared_cache_core_subsumption_hits_total", c.core_subsumption_hits),
        ("achilles_shared_cache_cores_indexed_total", c.cores_indexed),
        ("achilles_shared_cache_certified_unsat_total", c.certified_unsat),
    ]
}

/// The series-wise sum of two readings of one family.
fn sum(a: Series, b: Series) -> Series {
    a.into_iter()
        .zip(b)
        .map(|((name, x), (_, y))| (name, x + y))
        .collect()
}

/// Asserts the global registry holds exactly `expected`.
fn assert_registry(target: &str, what: &str, expected: Series) {
    let registry = achilles_obs::global();
    let got: Series = expected
        .iter()
        .map(|&(name, _)| (name, registry.value(name, &[]).unwrap_or(0)))
        .collect();
    assert_eq!(got, expected, "{target}: {what}");
}

#[test]
fn discovery_counters_fold_once_and_hold_across_workers() {
    let registry = builtin_registry();
    let metrics = achilles_obs::global();
    for spec in registry.iter() {
        let name = spec.name();
        for sessions in [false, true] {
            let section = |workers: usize| {
                metrics.reset();
                let mut session = AchillesSession::new(&**spec).workers(workers);
                if sessions {
                    session.run_sessions();
                } else {
                    session.run();
                }
                metrics.render_class(Class::Deterministic)
            };
            let one = section(1);
            assert!(
                one.iter()
                    .any(|line| line.starts_with("achilles_explore_runs_total ")),
                "{name}: discovery folds its explorations: {one:#?}"
            );
            for workers in [2usize, 4] {
                let other = section(workers);
                assert!(
                    one == other,
                    "{name} (sessions: {sessions}): the deterministic section \
                     differs at {workers} workers:\n1 worker: {one:#?}\n\
                     {workers} workers: {other:#?}"
                );
            }
        }

        metrics.reset();
        let mut single = AchillesSession::new(&**spec).workers(1);
        let report = single.run();
        let single_solver = solver_series(single.engine().solver.stats());
        assert_registry(name, "solver series", single_solver.clone());
        assert_registry(
            name,
            "exploration series",
            sum(
                explore_series(&report.client_explore),
                explore_series(&report.server_explore),
            ),
        );
        assert_registry(
            name,
            "Trojan-search series",
            trojan_series(&report.search_stats),
        );

        let mut sessions = AchillesSession::new(&**spec).workers(1);
        sessions.run_sessions();
        assert_registry(
            name,
            "solver series over two engines",
            sum(
                single_solver,
                solver_series(sessions.engine().solver.stats()),
            ),
        );
        assert_registry(
            name,
            "shared-cache series over two engines",
            sum(
                shared_cache_series(&single.engine().shared_cache().stats()),
                shared_cache_series(&sessions.engine().shared_cache().stats()),
            ),
        );
    }
}
