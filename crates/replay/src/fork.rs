//! The replay fork-server: prefix-shared execution trees across fault
//! schedules.
//!
//! A sweep campaign replays one [`SessionWitness`] under hundreds of
//! [`FaultSchedule`]s against the same target. Cold replay boots a fresh
//! deployment per cell, yet most cells share long delivery prefixes — a
//! bit-flip at slot 3 of a 4-slot session re-executes slots 0–2
//! identically. [`replay_session_forked`] exploits that: it expands every
//! schedule into its [`SessionPlan`](crate::target::SessionPlan), folds
//! the plans into a
//! *delivery-prefix trie* keyed on post-fault-application [`Delivery`]
//! bytes, and walks the trie depth-first over one booted
//! [`SnapshotReplayTarget`] session. A fork is a clone: at a branch point
//! every sibling subtree but the last runs on a clone of the session
//! ([`CloneSession::clone_session`](achilles::CloneSession::clone_session)),
//! and the last continues in place — the AFL fork-server move,
//! transplanted to deterministic replay.
//!
//! Classification reuses [`classify_session`] on the per-plan
//! [`InjectionOutcome`]s, so fork-server results are bit-identical to
//! cold-boot results by construction — the equivalence suite
//! (`tests/fork_server_equivalence.rs`) pins this for every registered
//! target and worker count against the explicit cold path
//! ([`ForkServer::detached`] with `fork = false`), and the conformance
//! suite's clone law pins the property it rests on: a clone is an exact,
//! independent copy of its source.

use achilles::SnapshotReplayTarget;
use achilles_symvm::{parallel_map, parallel_map_with};

use crate::target::{
    classify_session, plan_session, replay_session, Delivery, FaultSchedule, InjectionOutcome,
    ReplayTarget, SessionReplayResult,
};
use crate::witness::SessionWitness;

/// Instrumentation from one [`replay_session_forked`] call: how much
/// booting the prefix trie saved.
///
/// `boots` and `snapshot_restores` may vary with the worker count (each
/// parallel worker boots its own template session); every other field —
/// and every replay result — is worker-count invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Cells (schedules) executed.
    pub plans: usize,
    /// Deployment boots actually performed. Cold replay boots once per
    /// cell; the fork-server boots once (once per worker when the walk
    /// runs in parallel) and forks everything else from clones.
    pub boots: usize,
    /// Session clones taken: one per sibling subtree and per terminal
    /// that must leave its branch point untouched, plus one per walk
    /// started from a booted template (a persistent server's replays, a
    /// parallel walk's root subtrees). The field keeps its name for the
    /// `achilles_fork_snapshot_restores_total` series and the fleetd and
    /// bench counters that read it.
    pub snapshot_restores: usize,
    /// Sum over cells of their shared prefix depth: the number of leading
    /// deliveries of the cell's plan that at least one other cell's plan
    /// shares (0 when the cell diverges at its first delivery).
    /// `sum / plans` is the mean shared prefix depth.
    pub shared_prefix_depth_sum: usize,
    /// Independent subtrees the trie root fans out into — the fork-server's
    /// effective parallelism width.
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
    /// [`Deterministic`](achilles_obs::Class::Deterministic); `boots` and
    /// `snapshot_restores` vary with the worker count and claim order and
    /// are [`Wall`](achilles_obs::Class::Wall).
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

    /// Splits the root into independent parts, each walkable from its own
    /// boot state: the root's terminals (cells whose schedule drops every
    /// delivery), then one single-child root per subtree.
    fn into_root_parts(self) -> Vec<Trie> {
        let terminals = (!self.terminals.is_empty()).then(|| Trie {
            children: Vec::new(),
            plans_through: self.terminals.len(),
            terminals: self.terminals,
        });
        let subtrees = self.children.into_iter().map(|child| Trie {
            plans_through: child.1.plans_through,
            children: vec![child],
            terminals: Vec::new(),
        });
        terminals.into_iter().chain(subtrees).collect()
    }
}

/// Walks `node`'s subtree on `session`, whose state reflects the path
/// from the root to `node`, and consumes the session: the caller does not
/// use it again. Appends `(plan_index, outcome)` pairs for every terminal
/// reached. `outcome` at entry holds the accumulated prefix outcome for
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
    out: &mut Vec<(usize, InjectionOutcome)>,
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
        out.push((plan_index, outcome.clone()));
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

/// Walks the whole of `trie` on `session`, which sits at boot state.
fn walk_root(
    trie: &Trie,
    session: &mut dyn SnapshotReplayTarget,
    stats: &mut ForkStats,
) -> Vec<(usize, InjectionOutcome)> {
    let mut out = Vec::new();
    walk(
        trie,
        session,
        &mut InjectionOutcome::default(),
        0,
        0,
        &mut out,
        stats,
    );
    out
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

/// The trie executor every fork path shares: expands every schedule into
/// its plan, folds the plans into the delivery-prefix trie, hands the trie
/// to `run` — which executes every terminal and returns each plan's
/// outcome — and classifies the cells in schedule order.
fn execute_trie(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedules: &[&FaultSchedule],
    run: impl FnOnce(Trie, &mut ForkStats) -> Vec<(usize, InjectionOutcome)>,
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
    let mut executed: Vec<Option<InjectionOutcome>> = vec![None; plans.len()];
    for (index, outcome) in run(trie, &mut stats) {
        executed[index] = Some(outcome);
    }
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

/// Boots a fresh fork session of `target` under a `fork:boot` span.
fn boot(target: &dyn ReplayTarget) -> Box<dyn SnapshotReplayTarget + '_> {
    let _span = achilles_obs::span("fork:boot", "fork");
    target.boot()
}

/// Replays one witness under every schedule through the delivery-prefix
/// trie, returning per-schedule results in schedule order plus the
/// [`ForkStats`] instrumentation.
///
/// Results are bit-identical to calling [`replay_session`] per schedule:
/// plan expansion and classification are the exact same code, and the trie
/// walk executes the exact same delivery sequence per cell against cloned
/// state.
///
/// At one worker a single boot walks the whole trie. With more workers
/// the trie root splits into independent parts — its terminals (cells
/// whose schedule drops every delivery) and one part per subtree — shared
/// out with the same order-preserving pool the cold path uses; each
/// worker thread boots **one** template session and walks every part it
/// claims on a clone of it, so the boot count is `min(workers, parts)`
/// rather than one per cell. The result vector — and every signature in
/// it — is independent of `workers`.
pub fn replay_session_forked(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedules: &[&FaultSchedule],
    workers: usize,
) -> (Vec<SessionReplayResult>, ForkStats) {
    if schedules.is_empty() {
        return (Vec::new(), ForkStats::default());
    }
    execute_trie(target, witness, schedules, |trie, stats| {
        let parts = trie.children.len() + usize::from(!trie.terminals.is_empty());
        if workers <= 1 || parts < 2 {
            stats.boots += 1;
            return walk_root(&trie, boot(target).as_mut(), stats);
        }
        let parts = trie.into_root_parts();
        stats.boots += workers.min(parts.len());
        let walked = parallel_map_with(
            workers,
            &parts,
            |_| boot(target),
            |template, _, part| {
                let mut part_stats = ForkStats::default();
                let out = walk_root(
                    part,
                    fork(template.as_ref(), &mut part_stats).as_mut(),
                    &mut part_stats,
                );
                (out, part_stats)
            },
        );
        let mut out = Vec::new();
        for (part, part_stats) in walked {
            stats.absorb(&part_stats);
            out.extend(part);
        }
        out
    })
}

/// A reusable fork-server over one replay target: the unit of *per-target
/// affinity* for long-running campaign services.
///
/// [`replay_session_forked`] amortizes boots across the schedules of one
/// witness; a `ForkServer` amortizes them across *witnesses and campaign
/// rounds*: in **persistent** mode ([`ForkServer::new`]) it boots the
/// deployment once and keeps that session as a template that is never
/// driven; every replay — any witness of the same target — walks its trie
/// on a clone of the template, so a service that sweeps a stream of
/// ingested witnesses pays one boot per executor, not one per witness.
/// Results are bit-identical to the batch paths: plan expansion, the trie
/// walk, and classification are the exact same code, and a clone taken at
/// boot replays like a fresh boot (the conformance suite's clone law).
///
/// **Detached** mode ([`ForkServer::detached`]) reproduces the batch
/// executor's behavior exactly — fresh cells through
/// [`replay_session_forked`] (or cold per-cell boots with `fork` off),
/// baseline through [`replay_session`] — so code written against the
/// server (`achilles_sweep`'s `sweep_witness_on`) serves both the one-shot
/// bins and the daemon without divergence.
///
/// Persistent mode engages when `fork` is on and `workers <= 1` (one
/// template serves the walks one after another; with more workers the
/// server delegates to the per-witness parallel fork path, which boots
/// per worker).
pub struct ForkServer<'t> {
    target: &'t dyn ReplayTarget,
    workers: usize,
    fork: bool,
    persistent: bool,
    /// The booted session persistent replays clone; never driven itself.
    template: Option<Box<dyn SnapshotReplayTarget + 't>>,
    lifetime: ForkStats,
    baselines: usize,
}

impl std::fmt::Debug for ForkServer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkServer")
            .field("target", &self.target.name())
            .field("workers", &self.workers)
            .field("fork", &self.fork)
            .field("persistent", &self.persistent)
            .field("booted", &self.template.is_some())
            .field("lifetime", &self.lifetime)
            .field("baselines", &self.baselines)
            .finish()
    }
}

impl<'t> ForkServer<'t> {
    /// A persistent fork-server: one boot serves every replay of `target`
    /// for the server's whole lifetime (sequential; see type docs).
    pub fn new(target: &'t dyn ReplayTarget) -> ForkServer<'t> {
        ForkServer {
            target,
            workers: 1,
            fork: true,
            persistent: true,
            template: None,
            lifetime: ForkStats::default(),
            baselines: 0,
        }
    }

    /// A detached (one-shot-semantics) server reproducing the batch
    /// executor exactly: [`replay_session_forked`] per call when `fork`,
    /// cold per-cell boots otherwise.
    pub fn detached(target: &'t dyn ReplayTarget, workers: usize, fork: bool) -> ForkServer<'t> {
        ForkServer {
            target,
            workers: workers.max(1),
            fork,
            persistent: false,
            template: None,
            lifetime: ForkStats::default(),
            baselines: 0,
        }
    }

    /// The replay target this server fronts.
    pub fn target(&self) -> &'t dyn ReplayTarget {
        self.target
    }

    /// The worker-thread fan-out the delegated batch paths use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether replays are currently served by clones of the persistent
    /// template session (as opposed to the delegated batch paths).
    pub fn is_persistent(&self) -> bool {
        self.persistent && self.fork && self.workers <= 1
    }

    /// Cumulative [`ForkStats`] over every replay this server performed —
    /// baselines included, so a persistent server's `boots` stays at 1
    /// however many witnesses stream through it.
    pub fn lifetime_stats(&self) -> ForkStats {
        self.lifetime
    }

    /// Fault-free baselines replayed (persistent mode folds their boots
    /// into [`ForkServer::lifetime_stats`]; detached mode cold-boots them
    /// exactly like [`replay_session`], uncounted — the batch contract).
    pub fn baselines(&self) -> usize {
        self.baselines
    }

    /// Replays `witness` under the fault-free schedule — the sweep
    /// baseline. Persistent mode serves it from a clone of the template
    /// (no boot); detached mode is byte-for-byte [`replay_session`].
    pub fn replay_baseline(&mut self, witness: &SessionWitness) -> SessionReplayResult {
        let _span = achilles_obs::span("fork:baseline", "fork");
        achilles_obs::global().add(
            achilles_obs::Class::Deterministic,
            "achilles_fork_baselines_total",
            &[],
            1,
        );
        self.baselines += 1;
        let fault_free = FaultSchedule::none();
        if self.is_persistent() {
            let (mut results, stats) = self.replay_persistent(witness, &[&fault_free]);
            self.lifetime.absorb(&stats);
            results.pop().expect("one result per schedule")
        } else {
            replay_session(self.target, witness, &fault_free)
        }
    }

    /// Replays `witness` under every schedule, returning per-schedule
    /// results in schedule order plus this call's [`ForkStats`]. Results
    /// are bit-identical across modes and worker counts.
    pub fn replay_schedules(
        &mut self,
        witness: &SessionWitness,
        schedules: &[&FaultSchedule],
    ) -> (Vec<SessionReplayResult>, ForkStats) {
        if schedules.is_empty() {
            return (Vec::new(), ForkStats::default());
        }
        let _span = achilles_obs::span("fork:replay", "fork");
        let (results, stats) = if !self.fork {
            let cold = parallel_map(self.workers.max(1), schedules, |_, schedule| {
                replay_session(self.target, witness, schedule)
            });
            (cold, ForkStats::cold(schedules.len()))
        } else if self.is_persistent() {
            self.replay_persistent(witness, schedules)
        } else {
            replay_session_forked(self.target, witness, schedules, self.workers)
        };
        self.lifetime.absorb(&stats);
        stats.record_metrics();
        (results, stats)
    }

    /// The persistent execution path: the same trie the parallel fork
    /// path builds, walked on a clone of the template session (booted on
    /// first use).
    fn replay_persistent(
        &mut self,
        witness: &SessionWitness,
        schedules: &[&FaultSchedule],
    ) -> (Vec<SessionReplayResult>, ForkStats) {
        let target = self.target;
        let booted = self.template.is_none();
        let template = self.template.get_or_insert_with(|| boot(target));
        execute_trie(target, witness, schedules, |trie, stats| {
            stats.boots += usize::from(booted);
            // Traced as `fork:restore`, the name the trace's
            // `self_ms.fork.restore` layer reads: the copy each persistent
            // replay starts from.
            let mut session = {
                let _span = achilles_obs::span("fork:restore", "fork");
                fork(template.as_ref(), stats)
            };
            walk_root(&trie, session.as_mut(), stats)
        })
    }
}
