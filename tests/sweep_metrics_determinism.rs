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
//! - between fork and cold replay the `achilles_sweep_*` series,
//!   `achilles_fork_plans_total` and `achilles_fork_baselines_total` are
//!   identical. The work series may differ, because the fork-server
//!   exists to do less work: `achilles_fork_branches_total`,
//!   `achilles_fork_shared_prefix_depth_sum_total`, and the
//!   `achilles_explore_*` and `achilles_solver_*` series that fsp's
//!   concrete replay mirrors per delivery.

use achilles::AchillesSession;
use achilles_obs::Class;
use achilles_sweep::{sweep_report, CampaignConfig, SweepCache};
use achilles_targets::{builtin_registry, session_bearing};

/// Series fork and cold replay must agree on: what was swept, not how.
fn swept(section: &[String]) -> Vec<&String> {
    section
        .iter()
        .filter(|line| {
            line.starts_with("achilles_sweep_")
                || line.starts_with("achilles_fork_plans_total ")
                || line.starts_with("achilles_fork_baselines_total ")
        })
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
    assert!(
        swept(&fork).len() >= 4,
        "sweep, plan and baseline series are recorded: {fork:#?}"
    );
    assert_eq!(
        swept(&fork),
        swept(&cold),
        "fork and cold replay agree on what was swept"
    );
}
