//! The replay fork-server: one booted deployment serves every replay,
//! and each replay shares its cells' delivery prefixes.
//!
//! A sweep campaign replays each [`SessionWitness`] under hundreds of
//! [`FaultSchedule`]s against the same target. Cold replay boots a fresh
//! deployment per cell, yet most cells share long delivery prefixes — a
//! bit-flip at slot 3 of a 4-slot session re-executes slots 0–2
//! identically. A [`ForkServer`] boots the deployment once and keeps that
//! session as a template that is never driven. Each replay expands every
//! schedule into its [`SessionPlan`](crate::target::SessionPlan), folds
//! the plans into a *delivery-prefix trie* keyed on post-fault-application
//! [`Delivery`] bytes, and walks the trie depth-first on a clone of the
//! template. A fork is a clone: at a branch point every sibling subtree
//! but the last runs on a clone of the session
//! ([`CloneSession::clone_session`](achilles::CloneSession::clone_session)),
//! and the last continues in place — the AFL fork-server move,
//! transplanted to deterministic replay. Parallelism lives one level up:
//! a sweep fans its witnesses out over workers, each holding one server.
//!
//! Classification reuses [`classify_session`] on the per-plan
//! [`InjectionOutcome`]s, so fork-server results are bit-identical to
//! cold-boot results by construction — the equivalence suite
//! (`tests/fork_server_equivalence.rs`) pins this for every registered
//! target against the sequential cold reference ([`ForkServer::cold`]),
//! and the conformance suite's clone law pins the property it rests on: a
//! clone is an exact, independent copy of its source.

use achilles::SnapshotReplayTarget;

use crate::target::{
    classify_session, plan_session, replay_session, Delivery, FaultSchedule, InjectionOutcome,
    ReplayTarget, SessionReplayResult,
};
use crate::witness::SessionWitness;

/// Instrumentation from one [`ForkServer`] replay: how much booting the
/// template and sharing prefixes saved.
///
/// `boots` counts the servers that booted, so it depends on how a caller
/// spreads its witnesses over servers; every other field — and every
/// replay result — is fixed by the witnesses and their schedules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Cells (schedules) executed, fault-free baselines included.
    pub plans: usize,
    /// Deployment boots actually performed. Cold replay boots once per
    /// cell; a fork-server boots once, on its first replay, and clones
    /// everything else from that boot.
    pub boots: usize,
    /// Session clones taken: one to start each replay from the server's
    /// template, plus one per sibling subtree and per terminal that must
    /// leave its branch point untouched — one per cell in all. The field
    /// keeps its name for the `achilles_fork_snapshot_restores_total`
    /// series and the fleetd and bench counters that read it.
    pub snapshot_restores: usize,
    /// Sum over cells of their shared prefix depth: the number of leading
    /// deliveries of the cell's plan that at least one other cell's plan
    /// shares (0 when the cell diverges at its first delivery).
    /// `sum / plans` is the mean shared prefix depth.
    pub shared_prefix_depth_sum: usize,
    /// Independent subtrees the trie root fans out into (one per cell
    /// under cold replay).
    pub branches: usize,
}

impl ForkStats {
    /// Stats for a cold (non-forked) run over `plans` cells: one boot per
    /// cell, nothing shared.
    pub fn cold(plans: usize) -> ForkStats {
        ForkStats {
            plans,
            boots: plans,
            snapshot_restores: 0,
            shared_prefix_depth_sum: 0,
            branches: plans,
        }
    }

    /// Deployment boots the prefix trie avoided relative to cold replay.
    pub fn boots_saved(&self) -> usize {
        self.plans.saturating_sub(self.boots)
    }

    /// Mean shared prefix depth over the executed cells (0.0 when nothing
    /// was shared or no cells ran).
    pub fn mean_shared_prefix_depth(&self) -> f64 {
        if self.plans == 0 {
            0.0
        } else {
            self.shared_prefix_depth_sum as f64 / self.plans as f64
        }
    }

    /// Accumulates another call's stats (campaigns sweep many witnesses).
    pub fn absorb(&mut self, other: &ForkStats) {
        self.plans += other.plans;
        self.boots += other.boots;
        self.snapshot_restores += other.snapshot_restores;
        self.shared_prefix_depth_sum += other.shared_prefix_depth_sum;
        self.branches += other.branches;
    }

    /// Mirrors one replay call's stats into the process metrics registry
    /// as `achilles_fork_*` series. Cell/trie-shape counters (`plans`,
    /// `branches`, prefix depth) are fixed by the schedule set and so
    /// [`Deterministic`](achilles_obs::Class::Deterministic) — though
    /// `branches` and prefix depth measure the work fork replay saves, so
    /// they read differently under cold replay; `boots` depends on how
    /// many servers ran, and it and `snapshot_restores` are
    /// [`Wall`](achilles_obs::Class::Wall).
    pub fn record_metrics(&self) {
        use achilles_obs::Class::{Deterministic, Wall};
        let reg = achilles_obs::global();
        reg.add(
            Deterministic,
            "achilles_fork_plans_total",
            &[],
            self.plans as u64,
        );
        reg.add(
            Deterministic,
            "achilles_fork_branches_total",
            &[],
            self.branches as u64,
        );
        reg.add(
            Deterministic,
            "achilles_fork_shared_prefix_depth_sum_total",
            &[],
            self.shared_prefix_depth_sum as u64,
        );
        reg.add(Wall, "achilles_fork_boots_total", &[], self.boots as u64);
        reg.add(
            Wall,
            "achilles_fork_snapshot_restores_total",
            &[],
            self.snapshot_restores as u64,
        );
    }
}

/// One node of the delivery-prefix trie. Children are kept in first-insert
/// order so the DFS walk — and therefore every effect sequence — is
/// deterministic regardless of schedule order hashing.
struct Trie {
    children: Vec<(Delivery, Trie)>,
    /// Plan indices whose delivery sequence ends exactly at this node.
    terminals: Vec<usize>,
    /// Plans whose delivery path passes through (or ends at) this node —
    /// a non-root node with `plans_through >= 2` is a genuinely shared
    /// prefix.
    plans_through: usize,
}

impl Trie {
    fn new() -> Trie {
        Trie {
            children: Vec::new(),
            terminals: Vec::new(),
            plans_through: 0,
        }
    }

    fn insert(&mut self, deliveries: &[Delivery], plan_index: usize) {
        let mut node = self;
        node.plans_through += 1;
        for delivery in deliveries {
            let pos = match node.children.iter().position(|(d, _)| d == delivery) {
                Some(pos) => pos,
                None => {
                    node.children.push((delivery.clone(), Trie::new()));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[pos].1;
            node.plans_through += 1;
        }
        node.terminals.push(plan_index);
    }
}

/// Walks `node`'s subtree on `session`, whose state reflects the path
/// from the root to `node`, and consumes the session: the caller does not
/// use it again. Stores each terminal's outcome in `out` at its plan
/// index. `outcome` at entry holds the accumulated prefix outcome for
/// this path — it is extended in place and rewound after each branch
/// (cheaper than copying it per edge), so only the one per-cell outcome
/// copy the cold path also pays remains. `shared_depth` is the depth of
/// the deepest ancestor (this node included) whose prefix ≥ 2 plans
/// share.
fn walk(
    node: &Trie,
    session: &mut dyn SnapshotReplayTarget,
    outcome: &mut InjectionOutcome,
    depth: usize,
    shared_depth: usize,
    out: &mut [Option<InjectionOutcome>],
    stats: &mut ForkStats,
) {
    let mark = (outcome.accepted_each.len(), outcome.effects.len());
    let rewind = |outcome: &mut InjectionOutcome| {
        outcome.accepted_each.truncate(mark.0);
        outcome.effects.truncate(mark.1);
    };
    // Terminals: each runs `finish` on the state at this node. The last
    // consumer of that state — the final terminal of a leaf — finishes it
    // in place; every other terminal finishes a clone.
    for (i, &plan_index) in node.terminals.iter().enumerate() {
        if node.children.is_empty() && i + 1 == node.terminals.len() {
            session.finish(outcome);
        } else {
            fork(session, stats).finish(outcome);
        }
        out[plan_index] = Some(outcome.clone());
        rewind(outcome);
        stats.shared_prefix_depth_sum += shared_depth;
    }
    // Children: every sibling but the last walks a clone of this node's
    // session; the last continues in place.
    for (i, (delivery, child)) in node.children.iter().enumerate() {
        let shared = if child.plans_through >= 2 {
            depth + 1
        } else {
            shared_depth
        };
        let mut sibling;
        let session: &mut dyn SnapshotReplayTarget = if i + 1 < node.children.len() {
            sibling = fork(session, stats);
            sibling.as_mut()
        } else {
            &mut *session
        };
        session.deliver(delivery, outcome);
        walk(child, session, outcome, depth + 1, shared, out, stats);
        rewind(outcome);
    }
}

/// A clone of `session` for a branch that must leave it untouched,
/// counted in `stats`.
fn fork<'s>(
    session: &'s dyn SnapshotReplayTarget,
    stats: &mut ForkStats,
) -> Box<dyn SnapshotReplayTarget + 's> {
    stats.snapshot_restores += 1;
    session.clone_session()
}

/// Replays `witness` under every schedule as one delivery-prefix trie:
/// expands each schedule into its plan, folds the plans into the trie,
/// walks it on a clone of `template` (a session at boot state), and
/// classifies the cells in schedule order. The stats leave `boots` to the
/// caller.
fn execute_trie(
    target: &dyn ReplayTarget,
    template: &dyn SnapshotReplayTarget,
    witness: &SessionWitness,
    schedules: &[&FaultSchedule],
) -> (Vec<SessionReplayResult>, ForkStats) {
    let plans: Vec<_> = schedules
        .iter()
        .map(|schedule| plan_session(target, witness, schedule))
        .collect();
    let mut trie = Trie::new();
    for (index, plan) in plans.iter().enumerate() {
        trie.insert(&plan.deliveries, index);
    }
    let mut stats = ForkStats {
        plans: plans.len(),
        branches: trie
            .children
            .len()
            .max(usize::from(!trie.terminals.is_empty())),
        ..ForkStats::default()
    };
    // Traced as `fork:restore`, the name the trace's
    // `self_ms.fork.restore` layer reads: the copy each replay starts
    // from.
    let mut session = {
        let _span = achilles_obs::span("fork:restore", "fork");
        fork(template, &mut stats)
    };
    let mut executed: Vec<Option<InjectionOutcome>> = vec![None; plans.len()];
    walk(
        &trie,
        session.as_mut(),
        &mut InjectionOutcome::default(),
        0,
        0,
        &mut executed,
        &mut stats,
    );
    let results = plans
        .into_iter()
        .zip(executed)
        .map(|(plan, outcome)| {
            let outcome = outcome.expect("every plan index reaches exactly one trie terminal");
            classify_session(target, witness, plan, outcome)
        })
        .collect();
    (results, stats)
}

/// The replay executor over one target, shared by batch sweeps and the
/// fleetd campaign executors.
///
/// [`ForkServer::new`] boots the deployment on its first replay and keeps
/// that session as a template that is never driven; every replay — a
/// baseline or a schedule set, of any witness of the same target — walks
/// its delivery-prefix trie on a clone of the template. A caller that
/// sweeps many witnesses through one server pays one boot for all of
/// them; a sweep fans witnesses out over workers and gives each worker
/// one server. Results are bit-identical to cold replay: plan expansion
/// and classification are the exact same code, and a clone taken at boot
/// replays like a fresh boot (the conformance suite's clone law).
///
/// [`ForkServer::cold`] is the reference the equivalence suite and
/// `--no-fork` compare against: it replays every cell through
/// [`replay_session`], one fresh boot per cell, one cell after another.
pub struct ForkServer<'t> {
    target: &'t dyn ReplayTarget,
    fork: bool,
    /// The booted session every fork replay clones; never driven itself.
    template: Option<Box<dyn SnapshotReplayTarget + 't>>,
    lifetime: ForkStats,
}

impl std::fmt::Debug for ForkServer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkServer")
            .field("target", &self.target.name())
            .field("fork", &self.fork)
            .field("booted", &self.template.is_some())
            .field("lifetime", &self.lifetime)
            .finish()
    }
}

impl<'t> ForkServer<'t> {
    /// A fork-server over `target`: one boot, taken on the first replay,
    /// serves every replay for the server's lifetime.
    pub fn new(target: &'t dyn ReplayTarget) -> ForkServer<'t> {
        ForkServer {
            target,
            fork: true,
            template: None,
            lifetime: ForkStats::default(),
        }
    }

    /// The cold reference over `target`: every cell boots its own
    /// deployment through [`replay_session`], sequentially.
    pub fn cold(target: &'t dyn ReplayTarget) -> ForkServer<'t> {
        ForkServer {
            fork: false,
            ..ForkServer::new(target)
        }
    }

    /// Cumulative [`ForkStats`] over every replay this server performed —
    /// baselines included, so a fork-server's `boots` stays at 1 however
    /// many witnesses stream through it.
    pub fn lifetime_stats(&self) -> ForkStats {
        self.lifetime
    }

    /// Replays `witness` under the fault-free schedule — the sweep
    /// baseline, a cell like any other — returning its result and this
    /// call's [`ForkStats`], and counts it in
    /// `achilles_fork_baselines_total`.
    pub fn replay_baseline(
        &mut self,
        witness: &SessionWitness,
    ) -> (SessionReplayResult, ForkStats) {
        let _span = achilles_obs::span("fork:baseline", "fork");
        achilles_obs::global().add(
            achilles_obs::Class::Deterministic,
            "achilles_fork_baselines_total",
            &[],
            1,
        );
        let (mut results, stats) = self.replay(witness, &[&FaultSchedule::none()]);
        (results.pop().expect("one result per schedule"), stats)
    }

    /// Replays `witness` under every schedule, returning per-schedule
    /// results in schedule order plus this call's [`ForkStats`]. Results
    /// are bit-identical between fork and cold servers.
    pub fn replay_schedules(
        &mut self,
        witness: &SessionWitness,
        schedules: &[&FaultSchedule],
    ) -> (Vec<SessionReplayResult>, ForkStats) {
        if schedules.is_empty() {
            return (Vec::new(), ForkStats::default());
        }
        let _span = achilles_obs::span("fork:replay", "fork");
        self.replay(witness, schedules)
    }

    /// Replays the cells — through the trie on a clone of the template
    /// (booted here on first use), or cold — and adds the call's stats to
    /// the lifetime total and the metrics registry.
    fn replay(
        &mut self,
        witness: &SessionWitness,
        schedules: &[&FaultSchedule],
    ) -> (Vec<SessionReplayResult>, ForkStats) {
        let target = self.target;
        let (results, stats) = if self.fork {
            let booted = self.template.is_none();
            let template = self.template.get_or_insert_with(|| {
                let _span = achilles_obs::span("fork:boot", "fork");
                target.boot()
            });
            let (results, mut stats) = execute_trie(target, template.as_ref(), witness, schedules);
            stats.boots = usize::from(booted);
            (results, stats)
        } else {
            let results = schedules
                .iter()
                .map(|schedule| replay_session(target, witness, schedule))
                .collect();
            (results, ForkStats::cold(schedules.len()))
        };
        self.lifetime.absorb(&stats);
        stats.record_metrics();
        (results, stats)
    }
}
