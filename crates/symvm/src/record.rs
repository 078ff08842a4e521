//! Per-path records and exploration statistics.

use std::time::Duration;

use achilles_solver::TermId;

use crate::message::SymMessage;

/// How a completed execution path classified its triggering message.
///
/// The default classification follows the paper (§5.1): a path that sent a
/// reply is *accepting*, a path that returned to the event loop without
/// replying is *rejecting*. Programs can override this with the
/// `mark_accept` / `mark_reject` annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The message passed parsing and caused the node to act.
    Accept,
    /// The message was discarded.
    Reject,
}

/// One fully explored execution path.
#[derive(Clone, Debug)]
pub struct PathRecord {
    /// Sequential path id (in completion order).
    pub id: usize,
    /// Path constraints, in the order they were added.
    pub constraints: Vec<TermId>,
    /// Messages sent on this path (client predicate raw material).
    pub sent: Vec<SymMessage>,
    /// Messages received on this path (server predicate raw material).
    pub received: Vec<SymMessage>,
    /// Accept/reject classification.
    pub verdict: Verdict,
    /// The decision vector that reproduces this path.
    pub decisions: Vec<bool>,
    /// Number of symbolic branch points encountered.
    pub branch_points: usize,
    /// Free-form notes added by the program via `note()`.
    pub notes: Vec<String>,
}

/// Counters for one exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Program runs performed (one per scheduled path prefix).
    pub runs: usize,
    /// Paths that ran to completion.
    pub completed: usize,
    /// Paths whose condition became unsatisfiable.
    pub infeasible: usize,
    /// Paths cut by an observer (Achilles' Trojan-set pruning).
    pub pruned: usize,
    /// Paths dropped by a `drop_path` annotation.
    pub dropped: usize,
    /// Paths that hit the per-path depth budget.
    pub depth_exhausted: usize,
    /// Feasibility checks issued to the solver by branch points.
    pub branch_checks: u64,
    /// Branch feasibility checks the solver answered `Unknown`.
    pub unknown_branches: u64,
    /// Branch checks answered by reusing a previous frame's model
    /// (the incremental [`ScopedSolver`](achilles_solver::ScopedSolver)).
    pub model_reuse_hits: u64,
    /// Worker threads the exploration ran on (the
    /// [`ExploreConfig::workers`](crate::ExploreConfig::workers) knob).
    pub workers: usize,
    /// Worklist items taken from another worker's deque.
    pub steals: u64,
    /// Queries answered by the cross-worker shared cache.
    pub shared_cache_hits: u64,
    /// Shared-cache hits on entries published by an *earlier pipeline
    /// phase* (an earlier exploration or preprocessing pass on the same
    /// persistent cache — client predicate queries re-used by the server
    /// analysis, say). Always ≤ `shared_cache_hits` + the base solver's
    /// own shared hits; `0` when the exploration ran on a fresh cache.
    pub cross_phase_cache_hits: u64,
    /// Unsat verdicts computed by this exploration's solvers, each carrying
    /// a [`Certificate`](achilles_solver::Certificate) (and validated when
    /// the proof audit is installed).
    pub certified_unsat: u64,
    /// Queries answered `Unsat` by the shared cache's core-subsumption
    /// index: the query's assertion set contained a previously proven core.
    pub core_subsumption_hits: u64,
    /// Wall-clock time of the exploration.
    pub wall_time: Duration,
}

impl ExploreStats {
    /// Adds these counters to the process-wide metrics registry
    /// ([`achilles_obs::global`]) as `achilles_explore_*` series. Only a
    /// discovery run calls it, once for its client explorations and once
    /// per session's server exploration; no exploration writes to the
    /// registry itself. The certificate, subsumption and shared-cache
    /// counters are the solvers' and shared cache's own series.
    ///
    /// Workload-fixed counters (runs, verdict splits, branch checks) are
    /// [`Deterministic`](achilles_obs::Class::Deterministic); counters
    /// shaped by scheduling or incremental solver state (steals, model
    /// reuse, cross-phase cache hits, wall time) are
    /// [`Wall`](achilles_obs::Class::Wall).
    pub fn record_metrics(&self) {
        use achilles_obs::Class::{Deterministic, Wall};
        let reg = achilles_obs::global();
        for (name, value) in [
            ("achilles_explore_runs_total", self.runs as u64),
            ("achilles_explore_completed_total", self.completed as u64),
            ("achilles_explore_infeasible_total", self.infeasible as u64),
            ("achilles_explore_pruned_total", self.pruned as u64),
            ("achilles_explore_dropped_total", self.dropped as u64),
            (
                "achilles_explore_depth_exhausted_total",
                self.depth_exhausted as u64,
            ),
            ("achilles_explore_branch_checks_total", self.branch_checks),
            (
                "achilles_explore_unknown_branches_total",
                self.unknown_branches,
            ),
        ] {
            reg.add(Deterministic, name, &[], value);
        }
        for (name, value) in [
            (
                "achilles_explore_model_reuse_hits_total",
                self.model_reuse_hits,
            ),
            ("achilles_explore_steals_total", self.steals),
            (
                "achilles_explore_cross_phase_cache_hits_total",
                self.cross_phase_cache_hits,
            ),
            (
                "achilles_explore_wall_ns_total",
                self.wall_time.as_nanos() as u64,
            ),
        ] {
            reg.add(Wall, name, &[], value);
        }
    }

    /// Adds another exploration's plain-sum counters (runs through
    /// model-reuse hits, plus the certificate and subsumption counters)
    /// into `self` — the one accumulator shared by the
    /// parallel worker merge and the session's per-client aggregation.
    /// `workers`, `steals`, `shared_cache_hits`, and `wall_time` aggregate
    /// with caller-specific semantics and are left untouched.
    pub fn absorb_counters(&mut self, other: &ExploreStats) {
        self.runs += other.runs;
        self.completed += other.completed;
        self.infeasible += other.infeasible;
        self.pruned += other.pruned;
        self.dropped += other.dropped;
        self.depth_exhausted += other.depth_exhausted;
        self.branch_checks += other.branch_checks;
        self.unknown_branches += other.unknown_branches;
        self.model_reuse_hits += other.model_reuse_hits;
        self.certified_unsat += other.certified_unsat;
        self.core_subsumption_hits += other.core_subsumption_hits;
    }
}

/// The outcome of exploring one node program.
#[derive(Clone, Debug, Default)]
pub struct ExploreResult {
    /// Completed paths, in completion order.
    pub paths: Vec<PathRecord>,
    /// Exploration counters.
    pub stats: ExploreStats,
}

impl ExploreResult {
    /// The accepting paths.
    pub fn accepting(&self) -> impl Iterator<Item = &PathRecord> {
        self.paths.iter().filter(|p| p.verdict == Verdict::Accept)
    }

    /// The rejecting paths.
    pub fn rejecting(&self) -> impl Iterator<Item = &PathRecord> {
        self.paths.iter().filter(|p| p.verdict == Verdict::Reject)
    }

    /// Paths that sent at least one message (client predicate paths).
    pub fn sending(&self) -> impl Iterator<Item = &PathRecord> {
        self.paths.iter().filter(|p| !p.sent.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, verdict: Verdict, sent: usize) -> PathRecord {
        PathRecord {
            id,
            constraints: vec![],
            sent: vec![],
            received: vec![],
            verdict,
            decisions: vec![],
            branch_points: sent, // arbitrary reuse for the test
            notes: vec![],
        }
    }

    #[test]
    fn filters_by_verdict() {
        let result = ExploreResult {
            paths: vec![
                record(0, Verdict::Accept, 0),
                record(1, Verdict::Reject, 0),
                record(2, Verdict::Accept, 0),
            ],
            stats: ExploreStats::default(),
        };
        assert_eq!(result.accepting().count(), 2);
        assert_eq!(result.rejecting().count(), 1);
    }
}
