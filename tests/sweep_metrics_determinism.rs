//! What [`Class::Deterministic`] promises for sweeps, checked in a
//! process of its own: the metrics registry is process-global, so this
//! binary holds one test and nothing else records into it.
//!
//! Every session report of the built-in registry is discovered once. The
//! global registry is then reset before each [`sweep_report`] pass —
//! fork-server at 1, 2 and 4 workers, cold replay at 1 worker — and the
//! passes' deterministic sections are compared:
//!
//! - across worker counts the whole section is identical;
//! - between fork and cold replay the whole section is identical except
//!   the two series that measure the work the fork-server exists to cut:
//!   `achilles_fork_branches_total` and
//!   `achilles_fork_shared_prefix_depth_sum_total`. No replayed delivery
//!   writes to the registry, so nothing else may differ.

use achilles::AchillesSession;
use achilles_obs::Class;
use achilles_sweep::{sweep_report, CampaignConfig, SweepCache};
use achilles_targets::{builtin_registry, session_bearing};

/// The series fork and cold replay count differently by design.
const FORK_WORK: [&str; 2] = [
    "achilles_fork_branches_total ",
    "achilles_fork_shared_prefix_depth_sum_total ",
];

/// A deterministic section without the fork-server's work series.
fn without_fork_work(section: &[String]) -> Vec<&String> {
    section
        .iter()
        .filter(|line| !FORK_WORK.iter().any(|series| line.starts_with(series)))
        .collect()
}

#[test]
fn sweep_deterministic_series_hold_across_workers_and_fork_versus_cold() {
    let registry = builtin_registry();
    let reports: Vec<_> = session_bearing(&registry)
        .into_iter()
        .map(|spec| (spec, AchillesSession::new(&**spec).run_sessions()))
        .collect();
    // One pass: every report swept into a fresh cache, from an empty
    // registry; returns the deterministic section.
    let pass = |config: CampaignConfig| {
        achilles_obs::global().reset();
        let mut cache = SweepCache::new();
        for (spec, session_reports) in &reports {
            for report in session_reports {
                sweep_report(&***spec, report, &config, &mut cache);
            }
        }
        achilles_obs::global().render_class(Class::Deterministic)
    };

    let fork = pass(CampaignConfig::default().with_workers(1));
    for workers in [2usize, 4] {
        let other = pass(CampaignConfig::default().with_workers(workers));
        assert!(
            fork == other,
            "the deterministic section differs at {workers} workers:\n\
             1 worker: {fork:#?}\n{workers} workers: {other:#?}"
        );
    }

    let cold = pass(CampaignConfig::default().with_workers(1).without_fork());
    let (fork_rest, cold_rest) = (without_fork_work(&fork), without_fork_work(&cold));
    assert_eq!(
        fork.len() - fork_rest.len(),
        FORK_WORK.len(),
        "both fork work series are recorded: {fork:#?}"
    );
    assert!(
        fork_rest.len() >= 6,
        "sweep, plan and baseline series are recorded: {fork:#?}"
    );
    assert_eq!(
        fork_rest, cold_rest,
        "fork and cold replay agree on everything but the fork-server's work"
    );
}
