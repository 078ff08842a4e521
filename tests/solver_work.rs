//! Pins the solver's *work*, not only its answers.
//!
//! `discovery_digest` and `replay_digest` pin what discovery finds; this
//! test pins how many queries it takes to find it, and through which cache
//! tier each one is answered. For every registry target at one worker it
//! compares the counters `AchillesSession::run()` reports — queries
//! (summed over the server workers), the server exploration's shared-cache
//! hits, core-subsumption hits, certified unsats, branch checks,
//! model-reuse hits and completed paths, and the Trojan search's checks,
//! direct / matrix drops and checks answered by a model it already held —
//! and, for `run_sessions()`, the engine's `SharedCacheStats`. A change
//! that claims to make the solver cheaper without changing what it is asked
//! must leave every row alone. fsp's whole `run()` also pins the solver
//! kernel's work: assertions normalized, literals asserted and clause-part
//! evaluations over its full searches.
//! `parallel_scaling` checks fsp's 10,433 queries only for equality across
//! worker counts; this pins the value itself.

use achilles::AchillesSession;
use achilles_solver::SharedCacheStats;
use achilles_targets::builtin_registry;

/// What one 1-worker `run()` costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunWork {
    queries: u64,
    shared_hits: u64,
    subsumption_hits: u64,
    certified_unsat: u64,
    branch_checks: u64,
    model_reuse_hits: u64,
    completed_paths: usize,
    trojan_checks: u64,
    direct_drops: u64,
    matrix_drops: u64,
    model_answers: u64,
}

/// The engine's shared-cache counters after one 1-worker `run_sessions()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SessionWork {
    hits: u64,
    cross_epoch_hits: u64,
    misses: u64,
    inserts: u64,
    core_subsumption_hits: u64,
    cores_indexed: u64,
    certified_unsat: u64,
}

impl From<SharedCacheStats> for SessionWork {
    fn from(s: SharedCacheStats) -> SessionWork {
        SessionWork {
            hits: s.hits,
            cross_epoch_hits: s.cross_epoch_hits,
            misses: s.misses,
            inserts: s.inserts,
            core_subsumption_hits: s.core_subsumption_hits,
            cores_indexed: s.cores_indexed,
            certified_unsat: s.certified_unsat,
        }
    }
}

#[rustfmt::skip]
const PINNED_RUN: &[(&str, RunWork)] = &[
    ("fsp", RunWork { queries: 10433, shared_hits: 42, subsumption_hits: 337, certified_unsat: 301, branch_checks: 6916, model_reuse_hits: 288, completed_paths: 189, trojan_checks: 520, direct_drops: 200, matrix_drops: 232, model_answers: 339 }),
    ("pbft", RunWork { queries: 153, shared_hits: 0, subsumption_hits: 3, certified_unsat: 17, branch_checks: 108, model_reuse_hits: 0, completed_paths: 10, trojan_checks: 20, direct_drops: 7, matrix_drops: 0, model_answers: 8 }),
    ("paxos", RunWork { queries: 21, shared_hits: 0, subsumption_hits: 0, certified_unsat: 5, branch_checks: 10, model_reuse_hits: 0, completed_paths: 3, trojan_checks: 5, direct_drops: 2, matrix_drops: 0, model_answers: 1 }),
    ("twopc", RunWork { queries: 30, shared_hits: 0, subsumption_hits: 0, certified_unsat: 6, branch_checks: 18, model_reuse_hits: 0, completed_paths: 4, trojan_checks: 7, direct_drops: 3, matrix_drops: 0, model_answers: 4 }),
    ("gossip", RunWork { queries: 30, shared_hits: 0, subsumption_hits: 0, certified_unsat: 6, branch_checks: 18, model_reuse_hits: 0, completed_paths: 4, trojan_checks: 7, direct_drops: 3, matrix_drops: 0, model_answers: 4 }),
    ("shardexec", RunWork { queries: 68, shared_hits: 0, subsumption_hits: 2, certified_unsat: 13, branch_checks: 40, model_reuse_hits: 2, completed_paths: 6, trojan_checks: 11, direct_drops: 9, matrix_drops: 6, model_answers: 12 }),
];

#[rustfmt::skip]
const PINNED_SESSIONS: &[(&str, SessionWork)] = &[
    ("fsp", SessionWork { hits: 28, cross_epoch_hits: 0, misses: 748, inserts: 696, core_subsumption_hits: 52, cores_indexed: 160, certified_unsat: 160 }),
    ("pbft", SessionWork { hits: 0, cross_epoch_hits: 0, misses: 0, inserts: 0, core_subsumption_hits: 0, cores_indexed: 0, certified_unsat: 0 }),
    ("paxos", SessionWork { hits: 0, cross_epoch_hits: 0, misses: 0, inserts: 0, core_subsumption_hits: 0, cores_indexed: 0, certified_unsat: 0 }),
    ("twopc", SessionWork { hits: 1, cross_epoch_hits: 0, misses: 44, inserts: 44, core_subsumption_hits: 0, cores_indexed: 13, certified_unsat: 13 }),
    ("gossip", SessionWork { hits: 3, cross_epoch_hits: 0, misses: 64, inserts: 64, core_subsumption_hits: 0, cores_indexed: 17, certified_unsat: 17 }),
    ("shardexec", SessionWork { hits: 9, cross_epoch_hits: 0, misses: 128, inserts: 126, core_subsumption_hits: 2, cores_indexed: 31, certified_unsat: 31 }),
];

/// The solver kernel's work over fsp's whole 1-worker `run()`: client
/// extraction, preprocessing and the server search share the engine's
/// solver, and only full searches count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KernelWork {
    normalized: u64,
    literals_asserted: u64,
    clause_evals: u64,
}

const PINNED_FSP_KERNEL: KernelWork = KernelWork {
    normalized: 25528,
    literals_asserted: 25547,
    clause_evals: 25904,
};

fn run_work() -> Vec<(&'static str, RunWork)> {
    builtin_registry()
        .iter()
        .map(|spec| {
            let report = AchillesSession::new(&**spec).workers(1).run();
            let explore = &report.server_explore;
            let work = RunWork {
                queries: report.server_workers.iter().map(|w| w.queries).sum(),
                shared_hits: explore.shared_cache_hits,
                subsumption_hits: explore.core_subsumption_hits,
                certified_unsat: explore.certified_unsat,
                branch_checks: explore.branch_checks,
                model_reuse_hits: explore.model_reuse_hits,
                completed_paths: explore.completed,
                trojan_checks: report.search_stats.trojan_checks,
                direct_drops: report.search_stats.direct_drops,
                matrix_drops: report.search_stats.matrix_drops,
                model_answers: report.search_stats.model_answers,
            };
            (spec.name(), work)
        })
        .collect()
}

fn session_work() -> Vec<(&'static str, SessionWork)> {
    builtin_registry()
        .iter()
        .map(|spec| {
            let mut driver = AchillesSession::new(&**spec).workers(1);
            driver.run_sessions();
            (spec.name(), driver.engine().shared_cache().stats().into())
        })
        .collect()
}

#[test]
fn run_work_is_pinned_at_one_worker() {
    let actual = run_work();
    assert_eq!(
        actual, PINNED_RUN,
        "1-worker run() work changed; measured rows:\n{actual:#?}"
    );
}

#[test]
fn session_cache_work_is_pinned_at_one_worker() {
    let actual = session_work();
    assert_eq!(
        actual, PINNED_SESSIONS,
        "1-worker run_sessions() shared-cache work changed; measured rows:\n{actual:#?}"
    );
}

#[test]
fn fsp_kernel_work_is_pinned_at_one_worker() {
    let registry = builtin_registry();
    let fsp = registry.get("fsp").expect("fsp is registered");
    let mut session = AchillesSession::new(&**fsp).workers(1);
    session.run();
    let search = session.engine().solver.stats().search;
    let actual = KernelWork {
        normalized: search.normalized,
        literals_asserted: search.literals_asserted,
        clause_evals: search.clause_evals,
    };
    assert_eq!(
        actual, PINNED_FSP_KERNEL,
        "1-worker fsp run() kernel work changed"
    );
}
