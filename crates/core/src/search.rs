//! The incremental Trojan search (§3.2, §3.3 — Figure 7), for one message
//! or for a session of several (§7's message ordering).
//!
//! Achilles does not materialize the server predicate `P_S` and difference
//! it against `P_C` a posteriori. Instead it installs a [`TrojanObserver`]
//! into the server exploration. The observer holds one prepared client
//! predicate per message the server receives (a *slot*): a single-message
//! analysis is the one-slot case, and a session (login → command, vote →
//! decide) has one slot per message, in `recv` order.
//!
//! * per path and slot, it tracks the set of client path predicates that
//!   can still trigger the path (`pathS ∧ pathC_i` satisfiable once the
//!   slot's message was received); predicates that no longer match are
//!   **dropped** and their negations leave the Trojan query (if
//!   `pathS ∧ pathC_i` is unsat, `pathS ⇒ negate(pathC_i)` holds
//!   implicitly). Those sets are the observer's per-path state: a scheduled
//!   path resumes from the sets at its fork point, so the checks below run
//!   once per conjunct of the server path tree, never again for a replayed
//!   prefix;
//! * when a drop was caused by a branch that depends on a single field of
//!   the slot's message, the slot's pre-computed [`DiffMatrix`] drops whole
//!   groups of related predicates without solver calls;
//! * after every conjunct it checks whether *any* Trojan message can still
//!   trigger the path (`pathS ∧ ⋀ negate(pathC_i)` over the active `i`; a
//!   session is Trojan when any one slot is, so with several slots the
//!   query is `pathS ∧ ⋁ₛ ⋀ negate(pathC_{s,i})`); as soon as the answer
//!   is no, the path is pruned from the exploration;
//! * both checks try the last model first: a drop query keeps the model
//!   of its last Sat answer on the run's path, and if that model also
//!   satisfies the newest conjunct the predicate still matches; the Trojan
//!   query keeps its last model the same way and evaluates every
//!   assertion. Only a model that proves Sat answers, and Sat is the
//!   answer that keeps a predicate or a path, so every drop and prune is
//!   still the solver's own. Models belong to one run: a resumed run
//!   starts without any;
//! * at every accepting path end, each slot's query names the slots that
//!   host a Trojan; the first one's model is concretized into a witness
//!   (every received message) and (optionally) its message re-verified
//!   against every client path predicate of that slot.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use achilles_solver::{Model, SatResult, Solver, TermId, TermPool, VarId};
use achilles_symvm::{
    Executor, ExploreConfig, ExploreStats, NodeProgram, ObserverCx, ObserverState, PathObserver,
    PathRecord, SymMessage, Verdict,
};

use crate::diff_matrix::DiffMatrix;
use crate::negate::{negate_path, NegateStats, NegatedPath};
use crate::predicate::{combine, ClientPredicate, FieldMask};
use crate::report::TrojanReport;

/// Toggles for the paper's optimizations (the §6.4 ablation switches these).
#[derive(Clone, Copy, Debug)]
pub struct Optimizations {
    /// Drop client predicates whose conjunction with the server path became
    /// unsatisfiable (§3.3, first optimization).
    pub drop_covered: bool,
    /// Use the pre-computed `differentFrom` matrix to drop related
    /// predicates without solver calls (§3.3, second optimization).
    pub use_diff_matrix: bool,
    /// Prune server paths that can no longer accept any Trojan message
    /// (Figure 7's discarded states).
    pub prune_paths: bool,
}

impl Default for Optimizations {
    fn default() -> Optimizations {
        Optimizations {
            drop_covered: true,
            use_diff_matrix: true,
            prune_paths: true,
        }
    }
}

impl Optimizations {
    /// Everything off: the non-optimized configuration of §6.4.
    pub fn none() -> Optimizations {
        Optimizations {
            drop_covered: false,
            use_diff_matrix: false,
            prune_paths: false,
        }
    }
}

/// The client predicate pre-processed for the server analysis: negations
/// (with the §4.1 soundness check applied) and the `differentFrom` matrix.
#[derive(Debug)]
pub struct PreparedClient {
    /// The extracted client predicate.
    pub client: ClientPredicate,
    /// The symbolic message the server will receive.
    pub server_msg: SymMessage,
    /// `negate(pathC_i)` per client path.
    pub negations: Vec<NegatedPath>,
    /// The `differentFrom` matrix (empty if the optimization is off).
    pub diff: Option<DiffMatrix>,
    /// The field mask in effect.
    pub mask: FieldMask,
    /// Negation statistics.
    pub negate_stats: NegateStats,
    /// Total pre-processing time.
    pub prep_time: Duration,
    /// Map from server message field variables to field indices (used to
    /// detect single-field branches for matrix propagation).
    field_of_var: HashMap<VarId, usize>,
}

impl PreparedClient {
    /// If `vars` (one conjunct's variables) are all server message fields
    /// and name exactly one unmasked field, returns that field's index.
    fn single_field_of(&self, vars: &[VarId]) -> Option<usize> {
        let mut field = None;
        for v in vars {
            match self.field_of_var.get(v) {
                Some(&f) => match field {
                    None => field = Some(f),
                    Some(prev) if prev == f => {}
                    Some(_) => return None, // two different fields
                },
                None => return None, // non-message variable involved
            }
        }
        field.filter(|f| !self.mask.contains(*f))
    }
}

/// Pre-processes a client predicate against the server message (§3 phase 1½:
/// "it pre-processes `P_C` to eliminate redundancy and to pre-compute
/// structure information").
pub fn prepare_client(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: ClientPredicate,
    server_msg: SymMessage,
    mask: FieldMask,
    opts: Optimizations,
) -> PreparedClient {
    prepare_client_workers(pool, solver, client, server_msg, mask, opts, 1)
}

/// Negates every client path against `server_msg`, fanning the per-path work
/// out over up to `workers` threads.
///
/// Each path's negation is independent of every other's (the ROADMAP's
/// "embarrassingly parallel" loop), so workers take a strided share of the
/// paths on forks of the base pool, and the resulting clauses are imported
/// back in client-path order. Because the existential `λ'` copies are
/// interned by deterministic tags ([`rename_fresh_tagged`]), the imported
/// clauses are *fingerprint-identical* for every worker count — parallel
/// pre-processing never perturbs downstream solver models or the Trojan set.
///
/// [`rename_fresh_tagged`]: crate::predicate::rename_fresh_tagged
fn negate_all(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: &ClientPredicate,
    server_msg: &SymMessage,
    mask: &FieldMask,
    workers: usize,
    stats: &mut NegateStats,
) -> Vec<NegatedPath> {
    let n = client.paths.len();
    if workers <= 1 || n < 2 {
        return client
            .paths
            .iter()
            .map(|p| negate_path(pool, solver, server_msg, p, mask, stats))
            .collect();
    }
    let workers = workers.min(n);
    type WorkerNegations = (TermPool, Vec<(usize, NegatedPath)>, NegateStats);
    let results: Vec<WorkerNegations> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // Distinct nonce family from the exploration pool's forks so
                // ad-hoc variables can never alias across subsystems.
                let mut wpool = pool.fork(0x4E45_4700 + w as u64 + 1); // "NEG\0"
                let mut wsolver = Solver::with_config(solver.config().clone());
                if let Some(shared) = solver.shared_cache() {
                    // Inherit the engine's persistent cache: negation
                    // soundness checks publish into (and read from) the
                    // same pool of results every other phase uses.
                    wsolver = wsolver.with_shared_cache(Arc::clone(shared));
                }
                scope.spawn(move || {
                    let mut wstats = NegateStats::default();
                    let negs: Vec<(usize, NegatedPath)> = (w..n)
                        .step_by(workers)
                        .map(|i| {
                            let neg = negate_path(
                                &mut wpool,
                                &mut wsolver,
                                server_msg,
                                &client.paths[i],
                                mask,
                                &mut wstats,
                            );
                            (i, neg)
                        })
                        .collect();
                    (wpool, negs, wstats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("negation worker panicked"))
            .collect()
    });

    // Deterministic merge: visit paths in client order, importing each
    // worker's clauses through a per-worker memo.
    let mut pools = Vec::with_capacity(workers);
    let mut by_index: HashMap<usize, (usize, NegatedPath)> = HashMap::new();
    for (w, (wpool, negs, wstats)) in results.into_iter().enumerate() {
        stats.concrete_fields += wstats.concrete_fields;
        stats.symbolic_fields += wstats.symbolic_fields;
        stats.skipped_unconstrained += wstats.skipped_unconstrained;
        stats.discarded_unsound += wstats.discarded_unsound;
        stats.time += wstats.time;
        pools.push(wpool);
        for (i, neg) in negs {
            by_index.insert(i, (w, neg));
        }
    }
    let mut memos: Vec<HashMap<TermId, TermId>> = vec![HashMap::new(); workers];
    (0..n)
        .map(|i| {
            let (w, neg) = by_index.remove(&i).expect("every path index was negated");
            let memo = &mut memos[w];
            NegatedPath {
                client_index: neg.client_index,
                field_clauses: neg
                    .field_clauses
                    .iter()
                    .map(|&(f, c)| (f, pool.import_term(&pools[w], c, memo)))
                    .collect(),
                disjunction: neg
                    .disjunction
                    .map(|d| pool.import_term(&pools[w], d, memo)),
            }
        })
        .collect()
}

/// [`prepare_client`] with the negation loop fanned out over `workers`
/// threads (the private `negate_all` explains why the result is the same
/// for every worker count). The `differentFrom` matrix and field-variable
/// map stay sequential.
pub fn prepare_client_workers(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: ClientPredicate,
    server_msg: SymMessage,
    mask: FieldMask,
    opts: Optimizations,
    workers: usize,
) -> PreparedClient {
    let started = Instant::now();
    // Pre-processing is its own phase of the engine's persistent cache.
    if let Some(shared) = solver.shared_cache() {
        shared.advance_epoch();
    }
    let mut negate_stats = NegateStats::default();
    let negations = negate_all(
        pool,
        solver,
        &client,
        &server_msg,
        &mask,
        workers.max(1),
        &mut negate_stats,
    );
    let diff = if opts.use_diff_matrix {
        Some(DiffMatrix::compute(
            pool,
            solver,
            &server_msg,
            &client,
            &mask,
        ))
    } else {
        None
    };
    let mut field_of_var = HashMap::new();
    for (i, &t) in server_msg.values().iter().enumerate() {
        if let Some(v) = pool.as_var(t) {
            field_of_var.insert(v, i);
        }
    }
    PreparedClient {
        client,
        server_msg,
        negations,
        diff,
        mask,
        negate_stats,
        prep_time: started.elapsed(),
        field_of_var,
    }
}

/// One (path length, matching predicate count) sample — the raw data of
/// Figure 11. There is one sample per node of the server path tree: a run
/// resumed from its fork point does not re-sample the replayed prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchSample {
    /// Length of the (partial) server path, counted in conjuncts.
    pub path_len: usize,
    /// Client path predicates still matching, summed over slots.
    pub matching: usize,
}

/// Counters for one Trojan search.
///
/// Drops and Trojan-existence checks count each node of the server path
/// tree once, like the paper's incremental search: a run resumed from its
/// fork point does not re-check the replayed prefix.
///
/// Formerly named `SearchStats`, which collided with the solver's
/// DPLL-search counters (`achilles_solver::SearchStats`); the rename keeps
/// both exportable without aliasing. Metrics registry series are fully
/// qualified: these export as `achilles_trojan_search_*`, the solver's as
/// `achilles_solver_search_*`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrojanSearchStats {
    /// Client predicates dropped by direct satisfiability checks.
    pub direct_drops: u64,
    /// Client predicates dropped through the `differentFrom` matrix.
    pub matrix_drops: u64,
    /// Trojan-existence checks issued.
    pub trojan_checks: u64,
    /// Paths pruned because no Trojan could trigger them.
    pub paths_pruned: u64,
    /// Witnesses that failed verification and were re-enumerated.
    pub witness_retries: u64,
    /// Drop and Trojan-existence checks answered by a model the observer
    /// already held, without calling the solver.
    pub model_answers: u64,
}

impl TrojanSearchStats {
    /// Mirrors these counters into the process metrics registry
    /// ([`achilles_obs::global`]) as `achilles_trojan_search_*` series.
    /// Called once per pipeline run when the final report is assembled.
    pub fn record_metrics(&self) {
        use achilles_obs::Class::Deterministic;
        let reg = achilles_obs::global();
        for (name, value) in [
            (
                "achilles_trojan_search_direct_drops_total",
                self.direct_drops,
            ),
            (
                "achilles_trojan_search_matrix_drops_total",
                self.matrix_drops,
            ),
            ("achilles_trojan_search_checks_total", self.trojan_checks),
            (
                "achilles_trojan_search_paths_pruned_total",
                self.paths_pruned,
            ),
            (
                "achilles_trojan_search_witness_retries_total",
                self.witness_retries,
            ),
            (
                "achilles_trojan_search_model_answers_total",
                self.model_answers,
            ),
        ] {
            reg.add(Deterministic, name, &[], value);
        }
    }
}

/// The [`PathObserver`] implementing Achilles' incremental search.
///
/// The server receives one message per *slot*, and each slot has its own
/// prepared client predicate (slot order is the server's `recv` order). A
/// single-message analysis is the one-slot case; a session declares one
/// slot per message it receives.
#[derive(Debug)]
pub struct TrojanObserver<'p> {
    slots: &'p [&'p PreparedClient],
    opts: Optimizations,
    verify_witnesses: bool,
    /// Every slot's client-path flags, slot after slot: the per-path state.
    active: Vec<bool>,
    /// Per client path, in `active`'s layout: the model of its last drop
    /// query the solver answered Sat on this run's path. It satisfies the
    /// path's drop query at every conjunct notified since it was stored.
    drop_models: Vec<Option<Arc<Model>>>,
    /// The model of the last Trojan-existence query the solver answered Sat
    /// on this run's path.
    trojan_model: Option<Arc<Model>>,
    /// Each slot's span of `active`.
    ranges: Vec<Range<usize>>,
    /// Active client paths per slot.
    active_counts: Vec<usize>,
    /// Trojans found so far (one per accepting server path with Trojans).
    pub reports: Vec<TrojanReport>,
    /// For each report, the slots whose message is un-generable.
    pub trojan_slots: Vec<Vec<usize>>,
    /// Figure 11 samples: (path length, matching predicates).
    pub samples: Vec<MatchSample>,
    /// Search counters.
    pub stats: TrojanSearchStats,
    started: Instant,
}

impl<'p> TrojanObserver<'p> {
    /// Creates an observer over per-slot prepared client predicates.
    pub fn new(
        slots: &'p [&'p PreparedClient],
        opts: Optimizations,
        verify_witnesses: bool,
    ) -> Self {
        let active_counts: Vec<usize> = slots.iter().map(|p| p.client.len()).collect();
        let mut ranges = Vec::with_capacity(slots.len());
        let mut end = 0;
        for &n in &active_counts {
            ranges.push(end..end + n);
            end += n;
        }
        TrojanObserver {
            slots,
            opts,
            verify_witnesses,
            active: vec![true; end],
            drop_models: vec![None; end],
            trojan_model: None,
            ranges,
            active_counts,
            reports: Vec::new(),
            trojan_slots: Vec::new(),
            samples: Vec::new(),
            stats: TrojanSearchStats::default(),
            started: Instant::now(),
        }
    }

    /// The negations of slot `s`'s active client paths, in client order.
    fn active_negations(&self, s: usize) -> impl Iterator<Item = &'p NegatedPath> + '_ {
        self.slots[s]
            .negations
            .iter()
            .zip(&self.active[self.ranges[s].clone()])
            .filter(|&(_, &active)| active)
            .map(|(neg, _)| neg)
    }

    /// Whether slot `s` can still host a provable Trojan: none of its
    /// active negations is empty (an empty one under-approximates to
    /// `false`).
    fn feasible(&self, s: usize) -> bool {
        self.active_negations(s)
            .all(|neg| neg.disjunction.is_some())
    }

    /// `pc ∧ ⋀ negate_i` over a feasible slot's active client paths, one
    /// assertion per negation.
    fn slot_query(&self, pc: &[TermId], s: usize) -> Vec<TermId> {
        let mut query = pc.to_vec();
        query.extend(self.active_negations(s).filter_map(|neg| neg.disjunction));
        query
    }

    /// The Trojan-existence query for the current path, or `None` when no
    /// slot is feasible. A lone feasible slot asks its [`slot_query`];
    /// several ask `pc ∧ ⋁ₛ ⋀ negate_{s,i}`, since a session is Trojan
    /// when any one of its messages is: `¬(gen₁(m₁) ∧ … ∧ genₖ(mₖ)) =
    /// ⋁ₛ ¬genₛ(mₛ)`.
    ///
    /// [`slot_query`]: TrojanObserver::slot_query
    fn trojan_query(&self, pool: &mut TermPool, pc: &[TermId]) -> Option<Vec<TermId>> {
        let mut feasible = (0..self.slots.len()).filter(|&s| self.feasible(s));
        let first = feasible.next()?;
        let Some(second) = feasible.next() else {
            return Some(self.slot_query(pc, first));
        };
        let per_slot: Vec<TermId> = [first, second]
            .into_iter()
            .chain(feasible)
            .map(|s| pool.and_all(self.active_negations(s).filter_map(|neg| neg.disjunction)))
            .collect();
        let mut query = pc.to_vec();
        query.push(pool.or_all(per_slot));
        Some(query)
    }

    /// Whether the Trojan-existence `query` is not provably unsat. The last
    /// model on this run's path answers when it satisfies every assertion
    /// (a session's query can change shape between conjuncts, so the whole
    /// query is evaluated); otherwise the solver does, and its Sat model is
    /// kept for the next conjunct.
    fn may_host_trojan(&mut self, cx: &mut ObserverCx<'_>, query: &[TermId]) -> bool {
        if let Some(model) = &self.trojan_model {
            if query.iter().all(|&a| model.eval(cx.pool, a) == Some(1)) {
                self.stats.model_answers += 1;
                return true;
            }
        }
        match cx.solver.check(cx.pool, query) {
            SatResult::Sat(model) => {
                self.trojan_model = Some(model);
                true
            }
            SatResult::Unsat(_) => false,
            SatResult::Unknown => true,
        }
    }

    fn drop_pass(&mut self, cx: &mut ObserverCx<'_>) {
        let newest = match cx.pc.last() {
            Some(&c) => c,
            None => return,
        };
        // If the newest branch constrains a single message field, drops can
        // be propagated through the differentFrom matrix *before* paying for
        // the solver check on related predicates — the §3.3 optimization.
        let newest_vars = if self.opts.use_diff_matrix {
            cx.pool.vars_of(newest)
        } else {
            Vec::new()
        };
        // A slot constrains nothing before its message is received.
        for (s, msg) in cx.received.iter().enumerate().take(self.slots.len()) {
            let prepared = self.slots[s];
            let single_field = prepared.single_field_of(&newest_vars);
            let base = self.ranges[s].start;
            for i in 0..prepared.client.len() {
                if !self.active[base + i] {
                    continue;
                }
                // The stored model satisfies the drop query up to the
                // previous conjunct; if it satisfies the newest one too, it
                // satisfies the whole query and the predicate still matches.
                let stored = &mut self.drop_models[base + i];
                if stored
                    .as_ref()
                    .is_some_and(|m| m.eval(cx.pool, newest) == Some(1))
                {
                    self.stats.model_answers += 1;
                    continue;
                }
                let q = combine(
                    cx.pool,
                    msg,
                    cx.pc,
                    &prepared.client.paths[i],
                    prepared.mask.indices(),
                );
                let result = cx.solver.check(cx.pool, &q);
                let unsat = result.is_unsat();
                *stored = result.into_model();
                if !unsat {
                    continue;
                }
                self.active[base + i] = false;
                self.active_counts[s] -= 1;
                self.stats.direct_drops += 1;
                // The drop was caused by the new single-field check: every
                // predicate with no extra values for that field dies with it,
                // without consulting the solver.
                if let (Some(diff), Some(field)) = (prepared.diff.as_ref(), single_field) {
                    for j in 0..prepared.client.len() {
                        if self.active[base + j] && diff.different(j, i, field) == Some(false) {
                            self.active[base + j] = false;
                            self.active_counts[s] -= 1;
                            self.stats.matrix_drops += 1;
                        }
                    }
                }
            }
        }
    }

    /// Concretizes and verifies a Trojan witness for `slot` on an accepting
    /// path, starting from the `result` of the slot's `query`.
    fn witness(
        &mut self,
        cx: &mut ObserverCx<'_>,
        record: &PathRecord,
        slot: usize,
        mut query: Vec<TermId>,
        mut result: SatResult,
    ) -> Option<TrojanReport> {
        const MAX_RETRIES: usize = 4;
        // The witness is every received message, in order; the slot's own
        // message is the segment that gets verified. A path that accepted
        // before receiving the slot has no such segment, and an empty
        // message never verifies.
        let exprs: Vec<TermId> = record
            .received
            .iter()
            .flat_map(|msg| msg.values().iter().copied())
            .collect();
        let start: usize = self.slots[..slot]
            .iter()
            .map(|p| p.server_msg.values().len())
            .sum();
        let segment = start..start + self.slots[slot].server_msg.values().len();
        for retry in 0..=MAX_RETRIES {
            let SatResult::Sat(model) = result else {
                return None;
            };
            let fields = canonical_witness_fields(cx.pool, cx.solver, &query, &exprs, &model);
            let message = fields.get(segment.clone()).unwrap_or_default();
            let verified = !self.verify_witnesses || self.verify(cx, slot, message);
            if verified {
                return Some(TrojanReport {
                    server_path_id: record.id,
                    constraints: record.constraints.clone(),
                    witness_fields: fields,
                    active_clients: self.active_counts[slot],
                    verified,
                    found_at: self.started.elapsed(),
                    notes: record.notes.clone(),
                });
            }
            // Exclude this message and try again.
            self.stats.witness_retries += 1;
            let exclusion = self.exclude_message(cx.pool, slot, message);
            query.push(exclusion);
            if retry == MAX_RETRIES {
                break;
            }
            self.stats.trojan_checks += 1;
            result = cx.solver.check(cx.pool, &query);
        }
        None
    }

    /// Confirms that no client path predicate of `slot` can generate
    /// `message`.
    fn verify(&self, cx: &mut ObserverCx<'_>, slot: usize, message: &[u64]) -> bool {
        let prepared = self.slots[slot];
        for path in &prepared.client.paths {
            let mut q = path.constraints.clone();
            for (fi, (&expr, &value)) in path.message.values().iter().zip(message).enumerate() {
                if prepared.mask.contains(fi) {
                    continue;
                }
                let w = cx.pool.width(expr);
                let c = cx.pool.constant(value, w);
                let eq = cx.pool.eq(expr, c);
                q.push(eq);
            }
            if cx.solver.is_sat(cx.pool, &q) {
                return false; // a correct client can generate it
            }
        }
        true
    }

    /// A constraint excluding `message` from `slot` (differs in ≥ 1
    /// unmasked field).
    fn exclude_message(&self, pool: &mut TermPool, slot: usize, message: &[u64]) -> TermId {
        let prepared = self.slots[slot];
        let mut diffs = Vec::new();
        for (fi, (&sv, &value)) in prepared.server_msg.values().iter().zip(message).enumerate() {
            if prepared.mask.contains(fi) {
                continue;
            }
            let w = pool.width(sv);
            let c = pool.constant(value, w);
            let ne = pool.ne(sv, c);
            diffs.push(ne);
        }
        pool.or_all(diffs)
    }
}

/// Per-worker counters of one (possibly parallel) Trojan search.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSummary {
    /// Worker index (0 for the sequential path).
    pub worker: usize,
    /// Time this worker's solver spent searching.
    pub solve_time: Duration,
    /// Queries this worker's solver answered (including cache hits).
    pub queries: u64,
    /// Queries answered from the cross-worker shared cache.
    pub shared_hits: u64,
    /// Worklist items stolen from other workers.
    pub steals: u64,
    /// Time spent executing worklist items (excludes idle waiting).
    pub busy: Duration,
}

/// Everything one server-side Trojan search produces.
#[derive(Debug, Default)]
pub struct TrojanSearchOutcome {
    /// Trojan reports in canonical path order (terms valid in the caller's
    /// pool, including for parallel runs).
    pub reports: Vec<TrojanReport>,
    /// For each report, the slots whose message is un-generable (`[0]` for
    /// every single-message report).
    pub trojan_slots: Vec<Vec<usize>>,
    /// Figure 11 samples.
    pub samples: Vec<MatchSample>,
    /// Search counters, summed over workers.
    pub stats: TrojanSearchStats,
    /// Exploration counters, summed over workers.
    pub explore: ExploreStats,
    /// Completed server paths.
    pub server_paths: usize,
    /// Per-worker breakdown (one entry for sequential runs).
    pub workers: Vec<WorkerSummary>,
}

/// Canonicalizes a satisfiable witness query to its **lexicographically
/// least** model over `exprs`, in order: each expression is driven to its
/// minimal achievable value with every earlier expression pinned to its
/// minimum.
///
/// The latest model bounds each expression from above (a variable the
/// model leaves unassigned is free, and reads as 0). Models sit at domain
/// minima, so the bound usually is the minimum already: one probe of
/// `expr ≤ bound − 1` settles that. When that probe is satisfiable, a
/// binary search on `expr ≤ mid` below its model's value finds the
/// minimum. The result is the lexicographically least model whenever every
/// probe is decided; a probe answered Unknown counts as "not provably
/// achievable", which is deterministic per assertion set and so keeps the
/// result canonical.
///
/// The returned values are a pure function of the query's constraint
/// *set*. A raw `check()` model is not: the solver's clause-split order
/// follows term-id order, and term ids differ between the base pool and a
/// parallel worker's fork — with several negation clauses in the query
/// (multi-client targets like shardexec), sequential and parallel runs
/// would concretize different-but-equally-valid witnesses. Canonicalizing
/// here is what keeps discovery witness-identical for every worker count.
///
/// `model` must satisfy `query`; it seeds the upper bounds.
pub fn canonical_witness_fields(
    pool: &mut TermPool,
    solver: &mut Solver,
    query: &[TermId],
    exprs: &[TermId],
    model: &Model,
) -> Vec<u64> {
    let mut pinned = query.to_vec();
    let mut current: Option<Arc<Model>> = None; // latest model satisfying `pinned`
    let mut fields = Vec::with_capacity(exprs.len());
    for &expr in exprs {
        // A model assigns the variables of its own query; any other
        // variable is free in `pinned`, so reading it as 0 keeps `hi`
        // achievable.
        let bound_model = current.as_deref().unwrap_or(model);
        let mut hi = pool
            .eval_with(expr, &|v| Some(bound_model.value(v).unwrap_or(0)))
            .unwrap_or(0);
        let mut lo = 0u64;
        // Models sit at domain minima, so `hi` usually is the minimum
        // already: the first probe asks just below it, which proves that in
        // one check, and the probes after it bisect.
        let mut first_probe = Some(hi.saturating_sub(1));
        while lo < hi {
            let mid = first_probe.take().unwrap_or(lo + (hi - lo) / 2);
            let w = pool.width(expr);
            let c = pool.constant(mid, w);
            let le = pool.ule(expr, c);
            pinned.push(le);
            let result = solver.check(pool, &pinned);
            pinned.pop();
            match result {
                SatResult::Sat(m) => {
                    hi = m.eval(pool, expr).unwrap_or(mid);
                    current = Some(m);
                }
                // Unknown is deterministic per assertion set: treating it
                // as "not provably achievable" keeps the result canonical.
                SatResult::Unsat(_) | SatResult::Unknown => lo = mid + 1,
            }
        }
        let w = pool.width(expr);
        let c = pool.constant(lo, w);
        let eq = pool.eq(expr, c);
        pinned.push(eq);
        fields.push(lo);
    }
    fields
}

/// Tag-family salt for the server phase's symbolic inputs (see
/// [`ExploreConfig::sym_salt`]); the client phase uses the default `0`.
const SERVER_SYM_SALT: u64 = 0x5352_5600; // "SRV\0"

/// Runs the incremental Trojan search over `server`, sequentially or on
/// [`ExploreConfig::workers`] work-stealing threads.
///
/// `slots` holds one prepared client predicate per message the server
/// receives, in `recv` order; the receive script is set from their
/// symbolic messages. This is the one driver behind
/// [`Achilles::analyze_server`](crate::pipeline::Achilles::analyze_server)
/// (one slot),
/// [`AchillesSession::run_sessions`](crate::session::AchillesSession::run_sessions)
/// (a session's slots) and the FSP/Paxos analyses. In parallel mode every
/// worker runs its own [`TrojanObserver`] over a fork of `pool`;
/// afterwards reports are imported back into `pool`, their path ids
/// remapped to the canonical depth-first numbering, and the result sorted
/// by path id — which makes the report *set* identical to a sequential
/// run's (timestamps and per-worker statistics aside), budgets included.
pub fn run_trojan_search(
    pool: &mut TermPool,
    solver: &mut Solver,
    slots: &[&PreparedClient],
    server: &(dyn NodeProgram + Sync),
    mut explore: ExploreConfig,
    opts: Optimizations,
    verify_witnesses: bool,
) -> TrojanSearchOutcome {
    explore.recv_script = slots.iter().map(|p| p.server_msg.clone()).collect();
    // The server runs in the same pool lineage as the client exploration;
    // give its symbolic inputs their own tag family so a server `sym()` can
    // never share a fingerprint with the client's i-th input of the same
    // name and width (callers may override with a nonzero salt).
    if explore.sym_salt == 0 {
        explore.sym_salt = SERVER_SYM_SALT;
    }
    // The work-stealing pool schedules depth-first per worker and cannot
    // reproduce BFS completion order; keep BFS explorations sequential.
    if explore.workers <= 1 || explore.order == achilles_symvm::ExploreOrder::Bfs {
        let queries_before = solver.stats().queries;
        let solve_before = solver.stats().solve_time;
        let shared_before = solver.stats().shared_hits;
        // The sequential search is its own pipeline phase of the engine's
        // persistent cache: hits on entries an earlier phase published
        // (client extraction, preprocessing) are cross-phase reuse.
        let cross_before = solver.shared_cache().map(|s| {
            s.advance_epoch();
            s.stats().cross_epoch_hits
        });
        let item_started = Instant::now();
        let mut observer = TrojanObserver::new(slots, opts, verify_witnesses);
        let mut result = {
            let mut exec = Executor::new(pool, solver, explore);
            exec.explore_observed(server, &mut observer)
        };
        let TrojanObserver {
            reports,
            trojan_slots,
            samples,
            stats,
            ..
        } = observer;
        result.stats.shared_cache_hits = solver.stats().shared_hits - shared_before;
        if let (Some(before), Some(shared)) = (cross_before, solver.shared_cache()) {
            result.stats.cross_phase_cache_hits =
                shared.stats().cross_epoch_hits.saturating_sub(before);
        }
        let summary = WorkerSummary {
            worker: 0,
            solve_time: solver.stats().solve_time - solve_before,
            queries: solver.stats().queries - queries_before,
            shared_hits: solver.stats().shared_hits - shared_before,
            steals: 0,
            busy: item_started.elapsed(),
        };
        return TrojanSearchOutcome {
            reports,
            trojan_slots,
            samples,
            stats,
            server_paths: result.paths.len(),
            explore: result.stats,
            workers: vec![summary],
        };
    }

    let outcome = {
        let mut exec = Executor::new(pool, solver, explore);
        exec.explore_parallel(server, |_| {
            TrojanObserver::new(slots, opts, verify_witnesses)
        })
    };
    let server_paths = outcome.result.paths.len();
    let explore_stats = outcome.result.stats;
    let mut merged: Vec<(TrojanReport, Vec<usize>)> = Vec::new();
    let mut samples: Vec<MatchSample> = Vec::new();
    let mut stats = TrojanSearchStats::default();
    let mut workers = Vec::with_capacity(outcome.workers.len());
    for worker in outcome.workers {
        let observer = worker.observer;
        stats.direct_drops += observer.stats.direct_drops;
        stats.matrix_drops += observer.stats.matrix_drops;
        stats.trojan_checks += observer.stats.trojan_checks;
        stats.paths_pruned += observer.stats.paths_pruned;
        stats.witness_retries += observer.stats.witness_retries;
        stats.model_answers += observer.stats.model_answers;
        samples.extend(observer.samples);
        let mut memo = HashMap::new();
        for (mut report, slots) in observer.reports.into_iter().zip(observer.trojan_slots) {
            // Paths past a binding budget's canonical cut are absent from
            // the id map; their reports are discarded, exactly as a
            // sequential capped run would never have found them.
            let Some(&final_id) = outcome.id_map.get(&report.server_path_id) else {
                continue;
            };
            report.server_path_id = final_id;
            report.constraints = report
                .constraints
                .iter()
                .map(|&t| pool.import_term(&worker.pool, t, &mut memo))
                .collect();
            merged.push((report, slots));
        }
        workers.push(WorkerSummary {
            worker: worker.worker,
            solve_time: worker.solver_stats.solve_time,
            queries: worker.solver_stats.queries,
            shared_hits: worker.solver_stats.shared_hits,
            steals: worker.steals,
            busy: worker.busy,
        });
    }
    // Canonical order: one report per accepting path, sorted like the paths.
    merged.sort_by_key(|(r, _)| r.server_path_id);
    let (reports, trojan_slots) = merged.into_iter().unzip();
    TrojanSearchOutcome {
        reports,
        trojan_slots,
        samples,
        stats,
        explore: explore_stats,
        server_paths,
        workers,
    }
}

impl PathObserver for TrojanObserver<'_> {
    /// The per-path state is every slot's active client-path flags, slot
    /// after slot.
    fn fork_state(&self) -> ObserverState {
        self.active.iter().map(|&a| u64::from(a)).collect()
    }

    /// Models are not per-path state: each belongs to one run's path, so
    /// a resumed run starts without any.
    fn resume(&mut self, state: ObserverState) {
        for (a, word) in self.active.iter_mut().zip(state) {
            *a = word != 0;
        }
        self.drop_models.fill(None);
        self.trojan_model = None;
        for (count, range) in self.active_counts.iter_mut().zip(&self.ranges) {
            *count = self.active[range.clone()].iter().filter(|&&a| a).count();
        }
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        if self.opts.drop_covered {
            self.drop_pass(cx);
        }
        self.samples.push(MatchSample {
            path_len: cx.pc.len(),
            matching: self.active_counts.iter().sum(),
        });
        if !self.opts.prune_paths {
            return true;
        }
        // No feasible slot: every slot has an active client path that
        // cannot be negated at all, so the under-approximated Trojan set
        // is empty on this path.
        let keep = match self.trojan_query(cx.pool, cx.pc) {
            None => false,
            Some(query) => {
                self.stats.trojan_checks += 1;
                self.may_host_trojan(cx, &query)
            }
        };
        if !keep {
            self.stats.paths_pruned += 1;
        }
        keep
    }

    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        if record.verdict != Verdict::Accept {
            return;
        }
        // Every feasible slot whose query is not unsat hosts a Trojan; the
        // first one's model seeds the witness.
        let mut trojan_slots = Vec::new();
        let mut first = None;
        for s in 0..self.slots.len() {
            if !self.feasible(s) {
                continue;
            }
            let query = self.slot_query(&record.constraints, s);
            self.stats.trojan_checks += 1;
            let result = cx.solver.check(cx.pool, &query);
            if result.is_unsat() {
                continue;
            }
            trojan_slots.push(s);
            if first.is_none() {
                first = Some((s, query, result));
            }
        }
        let Some((slot, query, result)) = first else {
            return;
        };
        if let Some(report) = self.witness(cx, record, slot, query, result) {
            self.reports.push(report);
            self.trojan_slots.push(trojan_slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;
    use achilles_symvm::{MessageLayout, PathResult, SymEnv};

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("m")
            .field("request", Width::W8)
            .field("address", Width::W32)
            .build()
    }

    /// Figure 3 client (READ/WRITE with validated address).
    struct PaperClient;
    impl NodeProgram for PaperClient {
        fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
            let op = env.sym("operationType", Width::W8);
            let addr = env.sym("address", Width::W32);
            let hundred = env.constant(100, Width::W32);
            let zero = env.constant(0, Width::W32);
            if !env.if_slt(addr, hundred)? {
                return Ok(());
            }
            if env.if_slt(addr, zero)? {
                return Ok(());
            }
            let read = env.constant(1, Width::W8);
            let req = if env.if_eq(op, read)? {
                env.constant(1, Width::W8)
            } else {
                env.constant(2, Width::W8)
            };
            env.send(SymMessage::new(layout(), vec![req, addr]));
            Ok(())
        }
    }

    /// Figure 2 server: READ forgets the `address < 0` check.
    struct PaperServer;
    impl NodeProgram for PaperServer {
        fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
            let msg = env.recv(&layout())?;
            let req = msg.field("request");
            let addr = msg.field("address");
            let hundred = env.constant(100, Width::W32);
            let one = env.constant(1, Width::W8);
            let two = env.constant(2, Width::W8);
            if env.if_eq(req, one)? {
                env.note("READ");
                if !env.if_slt(addr, hundred)? {
                    return Ok(()); // rejecting: continue
                }
                // Missing: address < 0 check (the Trojan window).
                env.mark_accept();
                return Ok(());
            }
            if env.if_eq(req, two)? {
                env.note("WRITE");
                if !env.if_slt(addr, hundred)? {
                    return Ok(());
                }
                let zero = env.constant(0, Width::W32);
                if env.if_slt(addr, zero)? {
                    return Ok(());
                }
                env.mark_accept();
                return Ok(());
            }
            Ok(())
        }
    }

    fn run_pipeline(
        opts: Optimizations,
    ) -> (
        PreparedClient,
        Vec<TrojanReport>,
        Vec<MatchSample>,
        TrojanSearchStats,
    ) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        // Phase 1: client predicate.
        let client_result = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            exec.explore(&PaperClient)
        };
        let client = ClientPredicate::from_exploration(&client_result);
        // Phase 1½: preprocessing.
        let (server_config, server_msg) =
            ExploreConfig::with_symbolic_message(&mut pool, &layout(), "msg");
        let prepared = prepare_client(
            &mut pool,
            &mut solver,
            client,
            server_msg,
            FieldMask::none(),
            opts,
        );
        // Phase 2: server analysis, one slot.
        let slots = [&prepared];
        let mut observer = TrojanObserver::new(&slots, opts, true);
        {
            let mut exec = Executor::new(&mut pool, &mut solver, server_config);
            exec.explore_observed(&PaperServer, &mut observer);
        }
        let TrojanObserver {
            reports,
            samples,
            stats,
            ..
        } = observer;
        (prepared, reports, samples, stats)
    }

    #[test]
    fn finds_the_negative_address_trojan() {
        let (prepared, reports, _samples, _stats) = run_pipeline(Optimizations::default());
        assert_eq!(prepared.client.len(), 2);
        assert_eq!(reports.len(), 1, "exactly the READ path has Trojans");
        let r = &reports[0];
        assert!(r.verified);
        assert!(r.notes.contains(&"READ".to_string()));
        // The witness address is negative (or ≥ 100): not generable.
        let addr = Width::W32.to_signed(r.witness_fields[1]);
        assert!(!(0..100).contains(&addr), "addr = {addr}");
        // And its request field is READ.
        assert_eq!(r.witness_fields[0], 1);
    }

    #[test]
    fn non_optimized_finds_the_same_trojans() {
        let (_, optimized, _, stats_opt) = run_pipeline(Optimizations::default());
        let (_, plain, _, stats_plain) = run_pipeline(Optimizations::none());
        assert_eq!(optimized.len(), plain.len());
        assert_eq!(optimized[0].witness_fields[0], plain[0].witness_fields[0]);
        // The optimized run actually dropped predicates; the plain one did not.
        assert!(stats_opt.direct_drops > 0);
        assert_eq!(stats_plain.direct_drops, 0);
        assert_eq!(stats_plain.paths_pruned, 0);
    }

    #[test]
    fn samples_decrease_along_paths() {
        let (prepared, _reports, samples, _stats) = run_pipeline(Optimizations::default());
        assert!(!samples.is_empty(), "every server conjunct is sampled");
        let clients = prepared.client.len();
        for sample in &samples {
            assert!(sample.matching <= clients, "{sample:?} of {clients} paths");
        }
        // The sequential search samples depth-first: a sample one conjunct
        // longer than its predecessor extends the same path, and a longer
        // path never matches more client paths.
        for pair in samples.windows(2) {
            if pair[1].path_len == pair[0].path_len + 1 {
                assert!(pair[1].matching <= pair[0].matching, "{pair:?}");
            }
        }
    }

    #[test]
    fn write_path_has_no_trojans() {
        let (_prepared, reports, _samples, stats) = run_pipeline(Optimizations::default());
        assert!(
            !reports
                .iter()
                .any(|r| r.notes.contains(&"WRITE".to_string())),
            "WRITE validates fully; it must not be reported"
        );
        // The WRITE accepting path was pruned before completion or produced
        // no witness; either way pruning must have engaged somewhere.
        assert!(stats.paths_pruned > 0 || stats.trojan_checks > 0);
    }

    // --- Sessions: one slot per received message. ------------------------

    fn hs_layout() -> Arc<MessageLayout> {
        MessageLayout::builder("hs")
            .field("token", Width::W16)
            .build()
    }

    fn cmd_layout() -> Arc<MessageLayout> {
        MessageLayout::builder("cmd")
            .field("op", Width::W8)
            .field("arg", Width::W16)
            .build()
    }

    /// Slot-0 client: handshake tokens are validated to < 100.
    fn handshake_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let token = env.sym("token", Width::W16);
        let cap = env.constant(100, Width::W16);
        if !env.if_ult(token, cap)? {
            return Ok(());
        }
        env.send(SymMessage::new(hs_layout(), vec![token]));
        Ok(())
    }

    /// Slot-1 client: ops are 1 or 2, args validated to < 50.
    fn command_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let which = env.sym("which", Width::BOOL);
        let arg = env.sym("arg", Width::W16);
        let cap = env.constant(50, Width::W16);
        if !env.if_ult(arg, cap)? {
            return Ok(());
        }
        let op = if env.branch(which)? {
            env.constant(1, Width::W8)
        } else {
            env.constant(2, Width::W8)
        };
        env.send(SymMessage::new(cmd_layout(), vec![op, arg]));
        Ok(())
    }

    /// Session server: accepts token < `token_cap`, then op 1 (or, unless
    /// `op1_only`, op 2) with arg < `arg_cap`.
    struct SessionServer {
        token_cap: u64,
        op1_only: bool,
        arg_cap: u64,
    }
    impl NodeProgram for SessionServer {
        fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
            let hs = env.recv(&hs_layout())?;
            let tcap = env.constant(self.token_cap, Width::W16);
            if !env.if_ult(hs.field("token"), tcap)? {
                return Ok(());
            }
            let cmd = env.recv(&cmd_layout())?;
            let one = env.constant(1, Width::W8);
            let is1 = env.if_eq(cmd.field("op"), one)?;
            if !is1 {
                let two = env.constant(2, Width::W8);
                if self.op1_only || !env.if_eq(cmd.field("op"), two)? {
                    return Ok(());
                }
            }
            let acap = env.constant(self.arg_cap, Width::W16);
            if !env.if_ult(cmd.field("arg"), acap)? {
                return Ok(());
            }
            env.mark_accept();
            Ok(())
        }
    }

    /// Runs the handshake → command session search over `server`.
    fn run_session(server: &SessionServer) -> TrojanSearchOutcome {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut prepare = |client: fn(&mut SymEnv<'_>) -> PathResult<()>, layout, name| {
            let pred = {
                let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
                ClientPredicate::from_exploration(&exec.explore(&client))
            };
            let msg = SymMessage::fresh(&mut pool, &layout, name);
            let opts = Optimizations::default();
            prepare_client(&mut pool, &mut solver, pred, msg, FieldMask::none(), opts)
        };
        let hs_prep = prepare(handshake_client, hs_layout(), "hs");
        let cmd_prep = prepare(command_client, cmd_layout(), "cmd");
        run_trojan_search(
            &mut pool,
            &mut solver,
            &[&hs_prep, &cmd_prep],
            server,
            ExploreConfig::default(),
            Optimizations::default(),
            true,
        )
    }

    #[test]
    fn finds_the_handshake_session_trojan() {
        // Bug: the handshake accepts 2× the client token range.
        let outcome = run_session(&SessionServer {
            token_cap: 200,
            op1_only: false,
            arg_cap: 50,
        });
        // Both accepting paths (op 1 and op 2) host the handshake Trojan.
        assert_eq!(outcome.reports.len(), 2);
        for (r, s) in outcome.reports.iter().zip(&outcome.trojan_slots) {
            assert_eq!(s, &vec![0], "only the handshake slot is Trojan");
            assert!(r.verified, "the handshake message is verified");
            // The witness token is in the server-only window [100, 200).
            let token = r.witness_fields[0];
            assert!((100..200).contains(&token), "token {token}");
        }
    }

    #[test]
    fn patched_session_server_is_clean() {
        let outcome = run_session(&SessionServer {
            token_cap: 100,
            op1_only: false,
            arg_cap: 50,
        });
        assert_eq!(outcome.reports.len(), 0, "both slots accept exactly C");
        assert!(outcome.trojan_slots.is_empty());
    }

    #[test]
    fn second_slot_bug_is_attributed_to_the_right_slot() {
        // Bug: op 1 accepts 10× the client arg cap.
        let outcome = run_session(&SessionServer {
            token_cap: 100,
            op1_only: true,
            arg_cap: 500,
        });
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(
            outcome.trojan_slots[0],
            vec![1],
            "the command slot hosts the Trojan"
        );
        assert!(outcome.reports[0].verified);
        // Witness arg in [50, 500).
        let arg = outcome.reports[0].witness_fields[2];
        assert!((50..500).contains(&arg), "arg {arg}");
    }
}
