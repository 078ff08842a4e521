//! The constraint search engine.
//!
//! Satisfiability is decided by a DPLL-style search over negation-normal-form
//! formulas combined with interval-domain constraint propagation:
//!
//! 1. **Propagation** — affine atoms (`(zext(x) + c) ⋈ const`) are inverted
//!    into interval-set domain refinements; variable equalities are merged
//!    through a union-find; everything else is *deferred* and re-checked by
//!    evaluation whenever enough variables have collapsed to single values
//!    (this is how opaque functions such as CRCs participate:
//!    generate-and-test).
//! 2. **Clause splitting** — open disjunctions are unit-propagated and
//!    case-split.
//! 3. **Value enumeration** — when only deferred atoms remain, a variable
//!    mentioned by one of them is enumerated over its domain (exhaustively
//!    for small domains, by boundary-plus-random sampling for large ones; the
//!    sampled case can answer [`SatResult::Unknown`]).
//!
//! Every `Sat` answer carries a [`Model`] that has been *verified* by
//! re-evaluating all input assertions. Every `Unsat` answer carries a
//! [`Certificate`]: the refutation trace (restrictions, merges, splits,
//! conflicts) plus the unsat core, checkable by the independent
//! `achilles-proofcheck` crate — so *both* verdict kinds are trustworthy
//! even if a propagation rule were buggy.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::atom::{affine_view_with, nnf, Formula, Literal};
use crate::certificate::{Certificate, ProofNode, ProofStep};
use crate::hash::FastMap;
use crate::interval::IntervalSet;
use crate::model::Model;
use crate::term::{Op, TermId, TermPool, VarId};
use crate::width::Width;

/// Tuning knobs for the search engine.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Domains with at most this many values are enumerated exhaustively.
    pub enum_limit: u64,
    /// Number of random samples tried for larger domains before giving up.
    pub sample_count: usize,
    /// Hard budget on decisions (clause splits + value enumerations).
    pub max_decisions: u64,
    /// Seed for the sampling RNG (searches are deterministic given a seed).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            enum_limit: 4096,
            sample_count: 32,
            max_decisions: 2_000_000,
            seed: 0xAC41_11E5,
        }
    }
}

/// Outcome of a satisfiability query.
///
/// Models and certificates are shared (`Arc`) so that cache hits — including
/// hits served from the cross-worker [`SharedCache`](crate::cache::SharedCache)
/// — never deep clone them.
#[derive(Clone, Debug)]
pub enum SatResult {
    /// Satisfiable, with a verified model.
    Sat(Arc<Model>),
    /// Proven unsatisfiable, with a checkable refutation certificate.
    Unsat(Arc<Certificate>),
    /// The engine gave up (sampling fallback or budget exhaustion).
    Unknown,
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// The model, if satisfiable, without cloning the assignment.
    pub fn into_model(self) -> Option<Arc<Model>> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// The refutation certificate, if unsatisfiable.
    pub fn certificate(&self) -> Option<&Arc<Certificate>> {
        match self {
            SatResult::Unsat(c) => Some(c),
            _ => None,
        }
    }
}

/// Counters describing the work performed by one `solve` call.
///
/// This is the *solver's* DPLL-style search; the Trojan-search counters in
/// the core crate are the distinct `achilles::TrojanSearchStats` type (the
/// two used to collide on the name `SearchStats`). In the metrics registry
/// the series are fully qualified accordingly: these export as
/// `achilles_solver_search_*`, the Trojan search as `achilles_trojan_search_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of decision points (clause splits and enumerated values).
    pub decisions: u64,
    /// Number of domain refinements applied.
    pub propagations: u64,
    /// Number of deferred-atom evaluations.
    pub deferred_checks: u64,
    /// Number of model verifications that failed (should stay zero).
    pub verification_failures: u64,
    /// Total certificate nodes + steps emitted for `Unsat` verdicts.
    pub certificate_steps: u64,
    /// Assertions converted to negation normal form.
    pub normalized: u64,
    /// Literals asserted into the propagation state (deferred retries
    /// included).
    pub literals_asserted: u64,
    /// Disjunct evaluations while unit-propagating open clauses.
    pub clause_evals: u64,
}

/// An open disjunction awaiting unit propagation or a case split.
///
/// `parts` keeps the *original* disjuncts (the checker's `Or` context entry
/// holds all of them); `live` indexes the ones not yet falsified.
#[derive(Clone)]
struct Clause {
    /// Context ref of the `Or` entry this clause came from.
    or_ref: u32,
    /// All original disjuncts, in order.
    parts: Vec<Formula>,
    /// Indices into `parts` still undecided, ascending.
    live: Vec<usize>,
}

#[derive(Clone)]
struct State {
    parent: Vec<u32>,
    dom: FastMap<u32, IntervalSet>,
    deferred: Vec<(Literal, u32)>,
    clauses: Vec<Clause>,
    /// The checker's context length at this point of the search: refs of
    /// formulas pushed in this branch start here.
    next_ref: u32,
}

enum Step {
    Progress(bool),
    Conflict,
}

/// What an applied propagation touched — used to name the step (or the
/// conflict) in the certificate.
enum Applied {
    Restrict(VarId),
    Merge,
}

/// Chronological record of one propagation pass, folded into the proof
/// tree when (and only when) the branch is refuted.
enum Event {
    /// A justified domain refinement.
    Step(ProofStep),
    /// Unit propagation: all disjuncts of the `Or` at `or_ref` except
    /// `survivor` were falsified (each refuted by its synthesized node in
    /// `dead`), and the survivor was assumed.
    Unit {
        or_ref: u32,
        n_parts: usize,
        survivor: usize,
        dead: Vec<(usize, ProofNode)>,
    },
}

/// Internal search outcome: `Unsat` carries the (not yet core-extracted)
/// refutation of the current branch.
enum SearchOut {
    Sat(Arc<Model>),
    Unsat(ProofNode),
    Unknown,
}

/// Number of context entries a formula contributes when pushed: one per
/// literal and one per (unsplit) `Or`, walked structurally through `And`s.
fn count(f: &Formula) -> u32 {
    match f {
        Formula::True | Formula::False => 0,
        Formula::Lit(_) | Formula::Or(_) => 1,
        Formula::And(parts) => parts.iter().map(count).sum(),
    }
}

impl State {
    fn new(num_vars: usize) -> State {
        State {
            parent: (0..num_vars as u32).collect(),
            dom: FastMap::default(),
            deferred: Vec::new(),
            clauses: Vec::new(),
            next_ref: 0,
        }
    }

    fn ensure_var(&mut self, v: VarId) {
        let idx = v.index();
        while self.parent.len() <= idx {
            self.parent.push(self.parent.len() as u32);
        }
    }

    fn find(&self, v: VarId) -> u32 {
        let mut i = v.index() as u32;
        while (self.parent[i as usize]) != i {
            i = self.parent[i as usize];
        }
        i
    }

    fn domain_of(&self, pool: &TermPool, v: VarId) -> IntervalSet {
        let root = self.find(v);
        match self.dom.get(&root) {
            Some(d) => d.clone(),
            None => IntervalSet::full(pool.var_info(VarId(root)).width),
        }
    }

    fn value_of(&self, v: VarId) -> Option<u64> {
        if v.index() >= self.parent.len() {
            return None;
        }
        let root = self.find(v);
        self.dom.get(&root).and_then(|d| d.as_singleton())
    }

    /// Intersects the domain of `v`'s class with `set`.
    ///
    /// Returns whether the domain changed, or a conflict if it emptied.
    fn restrict(&mut self, pool: &TermPool, v: VarId, set: &IntervalSet) -> Step {
        self.ensure_var(v);
        let root = self.find(v);
        let mut d = match self.dom.get(&root) {
            Some(d) => d.clone(),
            None => IntervalSet::full(pool.var_info(VarId(root)).width),
        };
        let before = d.clone();
        d.intersect(set);
        if d.is_empty() {
            return Step::Conflict;
        }
        let changed = d != before;
        self.dom.insert(root, d);
        Step::Progress(changed)
    }

    fn merge(&mut self, pool: &TermPool, a: VarId, b: VarId) -> Step {
        self.ensure_var(a);
        self.ensure_var(b);
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Step::Progress(false);
        }
        let da = self
            .dom
            .remove(&ra)
            .unwrap_or_else(|| IntervalSet::full(pool.var_info(VarId(ra)).width));
        let db = self
            .dom
            .remove(&rb)
            .unwrap_or_else(|| IntervalSet::full(pool.var_info(VarId(rb)).width));
        if da.width() != db.width() {
            // Different widths can never be merged; treat as conflict — the
            // caller should not have produced such an equality.
            return Step::Conflict;
        }
        let mut d = da;
        d.intersect(&db);
        if d.is_empty() {
            return Step::Conflict;
        }
        self.parent[rb as usize] = ra;
        self.dom.insert(ra, d);
        Step::Progress(true)
    }
}

/// The recursive search driver. Owns the RNG and the decision budget.
struct Engine<'p> {
    pool: &'p mut TermPool,
    cfg: SolverConfig,
    rng: StdRng,
    stats: SearchStats,
    budget: u64,
    assertions: Vec<TermId>,
}

/// Decides satisfiability of the conjunction of `assertions`.
///
/// # Examples
///
/// ```
/// use achilles_solver::{solve, SolverConfig, TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let x = pool.fresh("x", Width::W8);
/// let five = pool.constant(5, Width::W8);
/// let ten = pool.constant(10, Width::W8);
/// let a = pool.ult(five, x);
/// let b = pool.ult(x, ten);
/// let (result, _stats) = solve(&mut pool, &[a, b], &SolverConfig::default());
/// let model = result.model().expect("5 < x < 10 is satisfiable");
/// let xv = pool.as_var(x).unwrap();
/// let v = model.value(xv).unwrap();
/// assert!(v > 5 && v < 10);
/// ```
pub fn solve(
    pool: &mut TermPool,
    assertions: &[TermId],
    cfg: &SolverConfig,
) -> (SatResult, SearchStats) {
    let mut engine = Engine {
        rng: StdRng::seed_from_u64(cfg.seed),
        cfg: cfg.clone(),
        budget: cfg.max_decisions,
        stats: SearchStats::default(),
        assertions: assertions.to_vec(),
        pool,
    };
    let num_vars = engine.pool.num_vars();
    let mut state = State::new(num_vars);

    // Normalize every assertion up front, assigning each its contiguous
    // ref range in the checker's context.
    let mut forms = Vec::with_capacity(assertions.len());
    let mut ranges = Vec::with_capacity(assertions.len());
    let mut next_ref = 0u32;
    let mut false_core: Option<usize> = None;
    engine.stats.normalized += assertions.len() as u64;
    for (k, &a) in assertions.iter().enumerate() {
        let f = nnf(engine.pool, a, true);
        let c = count(&f);
        ranges.push((next_ref, next_ref + c));
        if false_core.is_none() && matches!(f, Formula::False) {
            false_core = Some(k);
        }
        forms.push(f);
        next_ref += c;
    }
    if let Some(k) = false_core {
        // An assertion that normalizes to `false` refutes the conjunction
        // on its own: a one-assertion core, no search needed.
        let cert = Certificate {
            core: vec![engine.pool.term_fp(assertions[k])],
            proof: ProofNode::FalseCore { core: 0 },
            steps: 1,
        };
        engine.stats.certificate_steps += cert.steps;
        return (SatResult::Unsat(Arc::new(cert)), engine.stats);
    }
    state.next_ref = next_ref;
    let pending: Vec<(Formula, u32)> = forms
        .into_iter()
        .zip(ranges.iter().map(|&(start, _)| start))
        .collect();

    let out = engine.search(&mut state, pending);
    let result = match out {
        SearchOut::Sat(m) => SatResult::Sat(m),
        SearchOut::Unknown => SatResult::Unknown,
        SearchOut::Unsat(node) => {
            let cert = extract_certificate(engine.pool, assertions, &ranges, next_ref, node);
            engine.stats.certificate_steps += cert.steps;
            SatResult::Unsat(Arc::new(cert))
        }
    };
    let stats = engine.stats;
    (result, stats)
}

impl Engine<'_> {
    fn search(&mut self, state: &mut State, pending: Vec<(Formula, u32)>) -> SearchOut {
        let mut trail = Vec::new();
        if let Err(leaf) = self.propagate(state, pending, &mut trail) {
            return SearchOut::Unsat(fold_trail(trail, leaf));
        }

        // Case-split an open clause first: clauses are usually the negated
        // client predicates and splitting them early prunes best.
        if let Some(ci) = self.pick_clause(state) {
            let clause = state.clauses.swap_remove(ci);
            let split_ref = state.next_ref;
            let mut saw_unknown = false;
            let mut cases: Vec<Option<ProofNode>> = vec![None; clause.parts.len()];
            for (i, part) in clause.parts.iter().enumerate() {
                if !clause.live.contains(&i) {
                    // Falsified before the split; refuted by evaluation.
                    if !saw_unknown {
                        cases[i] =
                            Some(self.synth_false(state, part, split_ref, split_ref + count(part)));
                    }
                    continue;
                }
                if self.budget == 0 {
                    return SearchOut::Unknown;
                }
                self.budget -= 1;
                self.stats.decisions += 1;
                let mut branch = state.clone();
                branch.next_ref = split_ref + count(part);
                match self.search(&mut branch, vec![(part.clone(), split_ref)]) {
                    SearchOut::Sat(m) => return SearchOut::Sat(m),
                    SearchOut::Unsat(node) => cases[i] = Some(node),
                    SearchOut::Unknown => saw_unknown = true,
                }
            }
            if saw_unknown {
                return SearchOut::Unknown;
            }
            let cases: Vec<ProofNode> = cases
                .into_iter()
                .map(|c| c.expect("every disjunct refuted"))
                .collect();
            let split = ProofNode::SplitOr {
                or: clause.or_ref,
                cases,
            };
            return SearchOut::Unsat(fold_trail(trail, split));
        }

        // Then enumerate a variable pinned by a deferred atom.
        if let Some(var) = self.pick_deferred_var(state) {
            return match self.enumerate(state, var) {
                SearchOut::Unsat(node) => SearchOut::Unsat(fold_trail(trail, node)),
                other => other,
            };
        }

        // Only interval-consistent constraints remain: build and verify.
        self.finish(state)
    }

    /// Runs propagation to fixpoint, recording refinements into `trail`.
    /// `Err(node)` signals a conflict, refuted by `node`.
    fn propagate(
        &mut self,
        state: &mut State,
        mut pending: Vec<(Formula, u32)>,
        trail: &mut Vec<Event>,
    ) -> Result<(), ProofNode> {
        loop {
            let mut changed = false;

            // Drain structural formulas. Each carries the ref of its first
            // context entry; `And` children get consecutive sub-ranges.
            while let Some((f, base)) = pending.pop() {
                match f {
                    Formula::True => {}
                    Formula::False => {
                        unreachable!("top-level False is handled in solve; NNF nests no constants")
                    }
                    Formula::And(parts) => {
                        let mut p = base;
                        for part in parts {
                            let c = count(&part);
                            pending.push((part, p));
                            p += c;
                        }
                    }
                    Formula::Or(parts) => state.clauses.push(Clause {
                        or_ref: base,
                        live: (0..parts.len()).collect(),
                        parts,
                    }),
                    Formula::Lit(lit) => {
                        changed |= self.assert_literal(state, lit, base, trail)?;
                    }
                }
            }

            // Retry deferred literals (some may have become decidable).
            let deferred = std::mem::take(&mut state.deferred);
            for (lit, just) in deferred {
                self.stats.deferred_checks += 1;
                changed |= self.assert_literal(state, lit, just, trail)?;
            }

            // Unit-propagate clauses.
            let clauses = std::mem::take(&mut state.clauses);
            for clause in clauses {
                let mut live = Vec::new();
                let mut satisfied = false;
                for &i in &clause.live {
                    self.stats.clause_evals += 1;
                    match self.eval_formula(state, &clause.parts[i]) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => live.push(i),
                    }
                }
                if satisfied {
                    changed = true;
                    continue;
                }
                match live.len() {
                    0 => {
                        // Every disjunct falsified: the clause itself is the
                        // conflict, each case refuted by evaluation.
                        let here = state.next_ref;
                        let cases = clause
                            .parts
                            .iter()
                            .map(|p| self.synth_false(state, p, here, here + count(p)))
                            .collect();
                        return Err(ProofNode::SplitOr {
                            or: clause.or_ref,
                            cases,
                        });
                    }
                    1 => {
                        let survivor = live[0];
                        let here = state.next_ref;
                        let mut dead = Vec::with_capacity(clause.parts.len() - 1);
                        for (i, p) in clause.parts.iter().enumerate() {
                            if i != survivor {
                                dead.push((i, self.synth_false(state, p, here, here + count(p))));
                            }
                        }
                        trail.push(Event::Unit {
                            or_ref: clause.or_ref,
                            n_parts: clause.parts.len(),
                            survivor,
                            dead,
                        });
                        state.next_ref = here + count(&clause.parts[survivor]);
                        pending.push((clause.parts[survivor].clone(), here));
                        changed = true;
                    }
                    _ => state.clauses.push(Clause {
                        or_ref: clause.or_ref,
                        parts: clause.parts,
                        live,
                    }),
                }
            }

            if !changed && pending.is_empty() {
                return Ok(());
            }
        }
    }

    /// Conservative three-valued evaluation of a formula.
    fn eval_formula(&self, state: &State, f: &Formula) -> Option<bool> {
        match f {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Lit(lit) => {
                let v = self.pool.eval_with(lit.term, &|v| state.value_of(v))?;
                Some((v != 0) == lit.positive)
            }
            Formula::And(parts) => {
                let mut all_true = true;
                for p in parts {
                    match self.eval_formula(state, p) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all_true = false,
                    }
                }
                if all_true {
                    Some(true)
                } else {
                    None
                }
            }
            Formula::Or(parts) => {
                let mut all_false = true;
                for p in parts {
                    match self.eval_formula(state, p) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => all_false = false,
                    }
                }
                if all_false {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    /// Synthesizes a refutation of a formula that currently evaluates to
    /// `Some(false)` — pinned values alone contradict it, so the proof is a
    /// chain of `Falsified` leaves (splitting nested `Or`s along the way).
    ///
    /// `pos` is the ref of the formula's first context entry; `top` is the
    /// checker's context length at the node being synthesized (where any
    /// nested split cases push their disjuncts).
    fn synth_false(&self, state: &State, f: &Formula, pos: u32, top: u32) -> ProofNode {
        match f {
            Formula::Lit(_) => ProofNode::Falsified { just: pos },
            Formula::And(parts) => {
                let mut p = pos;
                for part in parts {
                    if self.eval_formula(state, part) == Some(false) {
                        return self.synth_false(state, part, p, top);
                    }
                    p += count(part);
                }
                unreachable!("a false conjunction has a false conjunct")
            }
            Formula::Or(parts) => ProofNode::SplitOr {
                or: pos,
                cases: parts
                    .iter()
                    .map(|part| self.synth_false(state, part, top, top + count(part)))
                    .collect(),
            },
            Formula::True | Formula::False => {
                unreachable!("normalized formulas nest no boolean constants")
            }
        }
    }

    /// Applies a propagation step, recording it (or the conflict it
    /// surfaces) against the justifying ref.
    fn apply_step(
        &mut self,
        trail: &mut Vec<Event>,
        just: u32,
        step: Step,
        applied: Applied,
    ) -> Result<bool, ProofNode> {
        match step {
            Step::Conflict => Err(match applied {
                Applied::Restrict(v) => ProofNode::EmptyRestrict {
                    just,
                    var: self.pool.var_fp(v),
                },
                Applied::Merge => ProofNode::EmptyMerge { just },
            }),
            Step::Progress(true) => {
                self.stats.propagations += 1;
                trail.push(Event::Step(match applied {
                    Applied::Restrict(v) => ProofStep::Restrict {
                        just,
                        var: self.pool.var_fp(v),
                    },
                    Applied::Merge => ProofStep::Merge { just },
                }));
                Ok(true)
            }
            Step::Progress(false) => Ok(false),
        }
    }

    /// Asserts one literal. Returns whether any domain changed.
    fn assert_literal(
        &mut self,
        state: &mut State,
        lit: Literal,
        just: u32,
        trail: &mut Vec<Event>,
    ) -> Result<bool, ProofNode> {
        self.stats.literals_asserted += 1;
        // Fast path: fully evaluable under the current assignment.
        if let Some(v) = self.pool.eval_with(lit.term, &|v| state.value_of(v)) {
            return if (v != 0) == lit.positive {
                Ok(false)
            } else {
                Err(ProofNode::Falsified { just })
            };
        }

        let node = self.pool.node(lit.term);
        let kind = match node.op {
            Op::Var(v) if node.width == Width::BOOL => {
                let want = u64::from(lit.positive);
                let set = IntervalSet::singleton(Width::BOOL, want);
                let step = state.restrict(self.pool, v, &set);
                return self.apply_step(trail, just, step, Applied::Restrict(v));
            }
            Op::Eq => CmpKind::Eq,
            Op::Ult => CmpKind::Ult,
            Op::Ule => CmpKind::Ule,
            _ => {
                state.deferred.push((lit, just));
                return Ok(false);
            }
        };
        let (a, b) = (node.args[0], node.args[1]);
        self.assert_cmp(state, lit, just, trail, kind, a, b)
    }

    #[allow(clippy::too_many_arguments)]
    fn assert_cmp(
        &mut self,
        state: &mut State,
        lit: Literal,
        just: u32,
        trail: &mut Vec<Event>,
        kind: CmpKind,
        a: TermId,
        b: TermId,
    ) -> Result<bool, ProofNode> {
        // Partial-evaluate each side: a side whose variables are all pinned
        // behaves as a constant, and pinned variables inside sums make the
        // remaining side affine.
        let ca = self.pool.eval_with(a, &|v| state.value_of(v));
        let cb = self.pool.eval_with(b, &|v| state.value_of(v));
        let va = affine_view_with(self.pool, a, &|v| state.value_of(v));
        let vb = affine_view_with(self.pool, b, &|v| state.value_of(v));
        let width = self.pool.width(a);

        let (step, applied) = match (ca, cb, va, vb) {
            // const ⋈ const was handled by the fast path in assert_literal.
            (_, Some(c), Some(av), _) => (
                self.restrict_affine(state, av, kind, SidePos::Left, c, width, lit.positive),
                Applied::Restrict(av.var),
            ),
            (Some(c), _, _, Some(bv)) => (
                self.restrict_affine(state, bv, kind, SidePos::Right, c, width, lit.positive),
                Applied::Restrict(bv.var),
            ),
            (None, None, Some(av), Some(bv))
                if kind == CmpKind::Eq
                    && lit.positive
                    && av.offset == bv.offset
                    && av.var_width == bv.var_width
                    && av.var_width == av.term_width
                    && bv.var_width == bv.term_width =>
            {
                (state.merge(self.pool, av.var, bv.var), Applied::Merge)
            }
            (_, Some(c), None, _) => {
                match self.try_extract(state, a, kind, SidePos::Left, c, lit.positive) {
                    Some((step, v)) => (step, Applied::Restrict(v)),
                    None => {
                        state.deferred.push((lit, just));
                        return Ok(false);
                    }
                }
            }
            (Some(c), _, _, None) => {
                match self.try_extract(state, b, kind, SidePos::Right, c, lit.positive) {
                    Some((step, v)) => (step, Applied::Restrict(v)),
                    None => {
                        state.deferred.push((lit, just));
                        return Ok(false);
                    }
                }
            }
            _ => {
                state.deferred.push((lit, just));
                return Ok(false);
            }
        };
        self.apply_step(trail, just, step, applied)
    }

    /// Propagates `extract(x, lo) ⋈ const` as a *striped* interval set over
    /// `x`: the inverse image of a slice constraint is, per allowed slice
    /// value, one interval for every assignment of the bits above the slice.
    /// Only applied when the stripe count stays small.
    fn try_extract(
        &mut self,
        state: &mut State,
        term: TermId,
        kind: CmpKind,
        side: SidePos,
        c: u64,
        positive: bool,
    ) -> Option<(Step, VarId)> {
        let node = self.pool.node(term);
        let Op::Extract { lo } = node.op else {
            return None;
        };
        let (inner, ew) = (node.args[0], node.width); // ew: extract width
        let var = self.pool.as_var(inner)?;
        let vw = self.pool.width(inner); // variable width
        let high_bits = vw.bits() - u32::from(lo) - ew.bits();

        // Allowed slice values for the comparison.
        let slice_values = match (kind, side, positive) {
            (CmpKind::Eq, _, true) => IntervalSet::singleton(ew, c),
            (CmpKind::Eq, _, false) => {
                let mut s = IntervalSet::full(ew);
                s.remove_value(c);
                s
            }
            (CmpKind::Ult, SidePos::Left, _) => {
                if c == 0 {
                    return Some((Step::Conflict, var));
                }
                IntervalSet::range(ew, 0, c - 1)
            }
            (CmpKind::Ult, SidePos::Right, _) => {
                if c >= ew.max_unsigned() {
                    return Some((Step::Conflict, var));
                }
                IntervalSet::range(ew, c + 1, ew.max_unsigned())
            }
            (CmpKind::Ule, SidePos::Left, _) => IntervalSet::range(ew, 0, c),
            (CmpKind::Ule, SidePos::Right, _) => IntervalSet::range(ew, c, ew.max_unsigned()),
        };
        // Stripe budget: one interval per (slice interval × high assignment).
        const MAX_STRIPES: u64 = 4096;
        let high_count = if high_bits >= 63 {
            return None;
        } else {
            1u64 << high_bits
        };
        let stripe_count = high_count.checked_mul(slice_values.intervals().len() as u64)?;
        if stripe_count > MAX_STRIPES {
            return None;
        }

        let mut allowed = IntervalSet::empty(vw);
        let slice_shift = u32::from(lo);
        let low_mask = (1u64 << slice_shift).wrapping_sub(1);
        for h in 0..high_count {
            let high = h << (slice_shift + ew.bits());
            for iv in slice_values.intervals() {
                let lo_bound = high | (iv.lo << slice_shift);
                let hi_bound = high | (iv.hi << slice_shift) | low_mask;
                allowed.union(&IntervalSet::range(vw, lo_bound, hi_bound));
            }
        }
        if allowed.is_empty() {
            return Some((Step::Conflict, var));
        }
        Some((state.restrict(self.pool, var, &allowed), var))
    }

    /// Restricts an affine side against a constant.
    ///
    /// `side` says whether the affine term is the left operand. For `Eq` the
    /// position is irrelevant; for orderings it decides the direction.
    #[allow(clippy::too_many_arguments)]
    fn restrict_affine(
        &mut self,
        state: &mut State,
        av: crate::atom::AffineView,
        kind: CmpKind,
        side: SidePos,
        c: u64,
        width: Width,
        positive: bool,
    ) -> Step {
        let term_values = match (kind, side, positive) {
            (CmpKind::Eq, _, true) => IntervalSet::singleton(width, c),
            (CmpKind::Eq, _, false) => {
                let mut s = IntervalSet::full(width);
                s.remove_value(c);
                s
            }
            // Orderings are always positive after NNF.
            (CmpKind::Ult, SidePos::Left, _) => {
                // term <u c
                if c == 0 {
                    return Step::Conflict;
                }
                IntervalSet::range(width, 0, c - 1)
            }
            (CmpKind::Ult, SidePos::Right, _) => {
                // c <u term
                if c == width.max_unsigned() {
                    return Step::Conflict;
                }
                IntervalSet::range(width, c + 1, width.max_unsigned())
            }
            (CmpKind::Ule, SidePos::Left, _) => IntervalSet::range(width, 0, c),
            (CmpKind::Ule, SidePos::Right, _) => IntervalSet::range(width, c, width.max_unsigned()),
        };
        let var_values = av.inverse_image(&term_values);
        if var_values.is_empty() {
            return Step::Conflict;
        }
        state.restrict(self.pool, av.var, &var_values)
    }

    fn pick_clause(&self, state: &State) -> Option<usize> {
        state
            .clauses
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.live.len())
            .map(|(i, _)| i)
    }

    /// Chooses the variable with the smallest domain among those mentioned by
    /// deferred atoms.
    fn pick_deferred_var(&self, state: &State) -> Option<VarId> {
        let mut best: Option<(u64, VarId)> = None;
        for (lit, _) in &state.deferred {
            for &v in self.pool.var_list(lit.term) {
                if state.value_of(v).is_some() {
                    continue;
                }
                let size = state.domain_of(self.pool, v).len();
                if best.is_none_or(|(s, _)| size < s) {
                    best = Some((size, v));
                }
            }
        }
        best.map(|(_, v)| v)
    }

    fn enumerate(&mut self, state: &State, var: VarId) -> SearchOut {
        let domain = state.domain_of(self.pool, var);
        let width = domain.width();
        let exhaustive = domain.len() <= self.cfg.enum_limit;

        let candidates: Vec<u64> = if exhaustive {
            domain.iter().collect()
        } else {
            let mut cands = Vec::with_capacity(self.cfg.sample_count + 4);
            if let (Some(lo), Some(hi)) = (domain.min(), domain.max()) {
                cands.push(lo);
                cands.push(hi);
                for _ in 0..self.cfg.sample_count {
                    let raw = self.rng.gen::<u64>() & width.mask();
                    // Walk up from the raw sample to the next in-domain value.
                    let mut probe = raw;
                    for _ in 0..64 {
                        if domain.contains(probe) {
                            cands.push(probe);
                            break;
                        }
                        probe = width.truncate(probe.wrapping_add(1));
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            cands
        };

        let mut saw_unknown = false;
        let mut incomplete = false;
        let mut cases = Vec::with_capacity(candidates.len());
        for value in candidates {
            if self.budget == 0 {
                return SearchOut::Unknown;
            }
            self.budget -= 1;
            self.stats.decisions += 1;
            let mut branch = state.clone();
            let single = IntervalSet::singleton(width, value);
            match branch.restrict(self.pool, var, &single) {
                Step::Conflict => {
                    // Unreachable for in-domain values; never claim a full
                    // enumeration if it somehow happens.
                    incomplete = true;
                    continue;
                }
                Step::Progress(_) => {}
            }
            match self.search(&mut branch, Vec::new()) {
                SearchOut::Sat(m) => return SearchOut::Sat(m),
                SearchOut::Unsat(node) => cases.push(node),
                SearchOut::Unknown => saw_unknown = true,
            }
        }
        if exhaustive && !saw_unknown && !incomplete {
            SearchOut::Unsat(ProofNode::SplitVal {
                var: self.pool.var_fp(var),
                cases,
            })
        } else {
            SearchOut::Unknown
        }
    }

    /// All constraints are interval-consistent: extract a model and verify it.
    fn finish(&mut self, state: &State) -> SearchOut {
        let mut model = Model::new();
        let mut relevant: Vec<VarId> = Vec::new();
        for &a in &self.assertions {
            self.pool.collect_vars(a, &mut relevant);
        }
        for v in relevant {
            let value = state.domain_of(self.pool, v).min().unwrap_or(0);
            model.assign(v, value);
        }
        for &a in &self.assertions {
            if model.eval(self.pool, a) != Some(1) {
                self.stats.verification_failures += 1;
                return SearchOut::Unknown;
            }
        }
        SearchOut::Sat(Arc::new(model))
    }
}

/// Folds a propagation trail around a refutation: steps become `Derive`
/// wrappers, unit propagations become `SplitOr` nodes whose survivor case
/// is the continuation.
fn fold_trail(trail: Vec<Event>, mut node: ProofNode) -> ProofNode {
    fn flush(steps: &mut Vec<ProofStep>, node: ProofNode) -> ProofNode {
        if steps.is_empty() {
            node
        } else {
            steps.reverse();
            ProofNode::Derive {
                steps: std::mem::take(steps),
                then: Box::new(node),
            }
        }
    }
    // Reverse walk: later events sit deeper in the tree.
    let mut steps: Vec<ProofStep> = Vec::new();
    for ev in trail.into_iter().rev() {
        match ev {
            Event::Step(s) => steps.push(s),
            Event::Unit {
                or_ref,
                n_parts,
                survivor,
                dead,
            } => {
                node = flush(&mut steps, node);
                let mut cases: Vec<Option<ProofNode>> = (0..n_parts).map(|_| None).collect();
                for (i, n) in dead {
                    cases[i] = Some(n);
                }
                cases[survivor] = Some(node);
                node = ProofNode::SplitOr {
                    or: or_ref,
                    cases: cases
                        .into_iter()
                        .map(|c| c.expect("unit event covers every disjunct"))
                        .collect(),
                };
            }
        }
    }
    flush(&mut steps, node)
}

/// Finds the assertion whose ref range contains `r` (ranges are contiguous).
fn locate(ranges: &[(u32, u32)], r: u32) -> usize {
    ranges.partition_point(|&(start, _)| start <= r) - 1
}

/// Extracts the unsat core (assertions the proof references) and rewrites
/// the proof's refs against the context built from the core alone.
fn extract_certificate(
    pool: &TermPool,
    assertions: &[TermId],
    ranges: &[(u32, u32)],
    total: u32,
    node: ProofNode,
) -> Certificate {
    fn visit(node: &ProofNode, f: &mut impl FnMut(u32)) {
        match node {
            ProofNode::Derive { steps, then } => {
                for s in steps {
                    match s {
                        ProofStep::Restrict { just, .. } | ProofStep::Merge { just } => f(*just),
                    }
                }
                visit(then, f);
            }
            ProofNode::SplitOr { or, cases } => {
                f(*or);
                for c in cases {
                    visit(c, f);
                }
            }
            ProofNode::SplitVal { cases, .. } => {
                for c in cases {
                    visit(c, f);
                }
            }
            ProofNode::Falsified { just }
            | ProofNode::EmptyRestrict { just, .. }
            | ProofNode::EmptyMerge { just } => f(*just),
            ProofNode::FalseCore { .. } | ProofNode::Admitted => {}
        }
    }
    fn remap(node: ProofNode, f: &impl Fn(u32) -> u32) -> ProofNode {
        match node {
            ProofNode::Derive { steps, then } => ProofNode::Derive {
                steps: steps
                    .into_iter()
                    .map(|s| match s {
                        ProofStep::Restrict { just, var } => {
                            ProofStep::Restrict { just: f(just), var }
                        }
                        ProofStep::Merge { just } => ProofStep::Merge { just: f(just) },
                    })
                    .collect(),
                then: Box::new(remap(*then, f)),
            },
            ProofNode::SplitOr { or, cases } => ProofNode::SplitOr {
                or: f(or),
                cases: cases.into_iter().map(|c| remap(c, f)).collect(),
            },
            ProofNode::SplitVal { var, cases } => ProofNode::SplitVal {
                var,
                cases: cases.into_iter().map(|c| remap(c, f)).collect(),
            },
            ProofNode::Falsified { just } => ProofNode::Falsified { just: f(just) },
            ProofNode::EmptyRestrict { just, var } => {
                ProofNode::EmptyRestrict { just: f(just), var }
            }
            ProofNode::EmptyMerge { just } => ProofNode::EmptyMerge { just: f(just) },
            other => other,
        }
    }

    let mut used = vec![false; assertions.len()];
    visit(&node, &mut |r| {
        if r < total {
            used[locate(ranges, r)] = true;
        }
    });
    let mut core = Vec::new();
    let mut new_start = vec![0u32; assertions.len()];
    let mut kept_total = 0u32;
    for (k, &u) in used.iter().enumerate() {
        if u {
            new_start[k] = kept_total;
            kept_total += ranges[k].1 - ranges[k].0;
            core.push(pool.term_fp(assertions[k]));
        }
    }
    // Root refs compact onto the kept prefix; branch-local refs (≥ total)
    // shift down by the dropped entry count.
    let shift = total - kept_total;
    let proof = remap(node, &|r| {
        if r < total {
            let k = locate(ranges, r);
            new_start[k] + (r - ranges[k].0)
        } else {
            r - shift
        }
    });
    let steps = proof.size();
    Certificate { core, proof, steps }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CmpKind {
    Eq,
    Ult,
    Ule,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SidePos {
    Left,
    Right,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    fn check(pool: &mut TermPool, assertions: &[TermId]) -> SatResult {
        solve(pool, assertions, &cfg()).0
    }

    #[test]
    fn simple_interval_sat() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let a = {
            let c = p.constant(5, Width::W8);
            p.ult(c, x)
        };
        let b = {
            let c = p.constant(10, Width::W8);
            p.ult(x, c)
        };
        let r = check(&mut p, &[a, b]);
        let m = r.model().expect("sat");
        let v = m.value(p.as_var(x).unwrap()).unwrap();
        assert!(v > 5 && v < 10, "got {v}");
    }

    #[test]
    fn contradictory_intervals_unsat() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let five = p.constant(5, Width::W8);
        let a = p.ult(x, five);
        let b = p.ult(five, x);
        assert!(check(&mut p, &[a, b]).is_unsat());
    }

    #[test]
    fn disequality_chain() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let two = p.constant(2, Width::W8);
        let three = p.constant(3, Width::W8);
        let lt = p.ult(x, three);
        let ne0 = {
            let c = p.constant(0, Width::W8);
            p.ne(x, c)
        };
        let ne1 = {
            let c = p.constant(1, Width::W8);
            p.ne(x, c)
        };
        let r = check(&mut p, &[lt, ne0, ne1]);
        let m = r.model().expect("x == 2 remains");
        assert_eq!(m.value(p.as_var(x).unwrap()), Some(2));
        let ne2 = p.ne(x, two);
        assert!(check(&mut p, &[lt, ne0, ne1, ne2]).is_unsat());
    }

    #[test]
    fn var_equality_merges() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W16);
        let y = p.fresh("y", Width::W16);
        let eq = p.eq(x, y);
        let c10 = p.constant(10, Width::W16);
        let c20 = p.constant(20, Width::W16);
        let a = p.ult(x, c20); // x < 20
        let b = p.ult(c10, y); // y > 10
        let r = check(&mut p, &[eq, a, b]);
        let m = r.model().expect("sat");
        let xv = m.value(p.as_var(x).unwrap()).unwrap();
        let yv = m.value(p.as_var(y).unwrap()).unwrap();
        assert_eq!(xv, yv);
        assert!(xv > 10 && xv < 20);
    }

    #[test]
    fn equality_conflict_via_merge() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W8);
        let eq = p.eq(x, y);
        let c5 = p.constant(5, Width::W8);
        let c9 = p.constant(9, Width::W8);
        let a = p.eq(x, c5);
        let b = p.eq(y, c9);
        assert!(check(&mut p, &[eq, a, b]).is_unsat());
    }

    #[test]
    fn signed_comparison_end_to_end() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W32);
        let zero = p.constant(0, Width::W32);
        let hundred = p.constant(100, Width::W32);
        // x <s 0 and x <s 100: satisfied by negative values.
        let a = p.slt(x, zero);
        let b = p.slt(x, hundred);
        let r = check(&mut p, &[a, b]);
        let m = r.model().expect("negative x exists");
        let v = m.value(p.as_var(x).unwrap()).unwrap();
        assert!(Width::W32.to_signed(v) < 0, "got {v}");
        // x <s 0 and x >=s 0 is unsat.
        let c = p.sge(x, zero);
        assert!(check(&mut p, &[a, c]).is_unsat());
    }

    #[test]
    fn disjunction_splits() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let c1 = p.constant(1, Width::W8);
        let c2 = p.constant(2, Width::W8);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let either = p.or(e1, e2);
        let not1 = p.not(e1);
        let r = check(&mut p, &[either, not1]);
        let m = r.model().expect("x == 2");
        assert_eq!(m.value(p.as_var(x).unwrap()), Some(2));
        let not2 = p.not(e2);
        assert!(check(&mut p, &[either, not1, not2]).is_unsat());
    }

    #[test]
    fn opaque_fun_generate_and_test() {
        let mut p = TermPool::new();
        // parity(x) == 1 with x < 4: solver must enumerate x.
        let parity = p.register_fun("parity", Width::W8, |args| args[0] % 2);
        let x = p.fresh("x", Width::W8);
        let four = p.constant(4, Width::W8);
        let lt = p.ult(x, four);
        let app = p.apply(parity, vec![x]);
        let one = p.constant(1, Width::W8);
        let odd = p.eq(app, one);
        let r = check(&mut p, &[lt, odd]);
        let m = r.model().expect("1 or 3 works");
        let v = m.value(p.as_var(x).unwrap()).unwrap();
        assert!(v == 1 || v == 3);
    }

    #[test]
    fn opaque_fun_unsat() {
        let mut p = TermPool::new();
        let always7 = p.register_fun("const7", Width::W8, |_| 7);
        let x = p.fresh("x", Width::W8);
        let app = p.apply(always7, vec![x]);
        let eight = p.constant(8, Width::W8);
        let eq = p.eq(app, eight);
        // Exhaustive over 256 values: provably unsat.
        assert!(check(&mut p, &[eq]).is_unsat());
    }

    #[test]
    fn fun_forcing_output_var() {
        let mut p = TermPool::new();
        let double = p.register_fun("double", Width::W16, |args| args[0] * 2);
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W16);
        let wide_x_input = x;
        let app = p.apply(double, vec![wide_x_input]);
        let eq = p.eq(y, app);
        let c3 = p.constant(3, Width::W8);
        let x_is_3 = p.eq(x, c3);
        let r = check(&mut p, &[eq, x_is_3]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(p.as_var(y).unwrap()), Some(6));
    }

    #[test]
    fn cross_width_zext_constraint() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let wide = p.zext(x, Width::W32);
        let c300 = p.constant(300, Width::W32);
        // zext(x) > 300 is unsat at 8 bits.
        let gt = p.ult(c300, wide);
        assert!(check(&mut p, &[gt]).is_unsat());
        // zext(x) > 200 is sat.
        let c200 = p.constant(200, Width::W32);
        let gt2 = p.ult(c200, wide);
        let r = check(&mut p, &[gt2]);
        let m = r.model().expect("sat");
        assert!(m.value(p.as_var(x).unwrap()).unwrap() > 200);
    }

    #[test]
    fn large_domain_interval_only_no_enumeration() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W64);
        let lo = p.constant(1_000_000, Width::W64);
        let a = p.ult(lo, x);
        let (r, stats) = solve(&mut p, &[a], &cfg());
        assert!(r.is_sat());
        // Interval reasoning alone should solve this: no value enumeration.
        assert_eq!(stats.decisions, 0);
    }

    #[test]
    fn empty_query_is_sat() {
        let mut p = TermPool::new();
        assert!(check(&mut p, &[]).is_sat());
    }

    #[test]
    fn exhausted_budget_returns_unknown() {
        let mut p = TermPool::new();
        // A query needing case splits, with a budget too small to finish.
        let x = p.fresh("x", Width::W8);
        let parity = p.register_fun("parity", Width::W8, |a| a[0] % 2);
        let app = p.apply(parity, vec![x]);
        let one = p.constant(1, Width::W8);
        let odd = p.eq(app, one);
        let tiny = SolverConfig {
            max_decisions: 1,
            ..SolverConfig::default()
        };
        let (r, stats) = solve(&mut p, &[odd], &tiny);
        assert!(
            matches!(r, SatResult::Unknown | SatResult::Sat(_)),
            "must never claim Unsat under budget exhaustion: {r:?}"
        );
        assert!(stats.decisions <= 1);
    }

    #[test]
    fn extract_and_concat_via_enumeration() {
        let mut p = TermPool::new();
        // high byte of x == 0xAB and low byte == 0xCD pins x = 0xABCD.
        let x = p.fresh("x", Width::W16);
        let hi = p.extract(x, 8, Width::W8);
        let lo = p.extract(x, 0, Width::W8);
        let ab = p.constant(0xAB, Width::W8);
        let cd = p.constant(0xCD, Width::W8);
        let e1 = p.eq(hi, ab);
        let e2 = p.eq(lo, cd);
        let r = check(&mut p, &[e1, e2]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(p.as_var(x).unwrap()), Some(0xABCD));
        // Contradictory byte constraints are unsat.
        let e3 = p.ne(lo, cd);
        assert!(check(&mut p, &[e1, e2, e3]).is_unsat());
    }

    #[test]
    fn bool_width_operations() {
        let mut p = TermPool::new();
        let a = p.fresh("a", Width::BOOL);
        let b = p.fresh("b", Width::BOOL);
        let both = p.and(a, b);
        let r = check(&mut p, &[both]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(p.as_var(a).unwrap()), Some(1));
        assert_eq!(m.value(p.as_var(b).unwrap()), Some(1));
        let na = p.not(a);
        assert!(check(&mut p, &[both, na]).is_unsat());
    }

    #[test]
    fn sext_constraint_solved_by_enumeration() {
        let mut p = TermPool::new();
        // sext8→16(x) == 0xFFFF ⟺ x == 0xFF.
        let x = p.fresh("x", Width::W8);
        let wide = p.sext(x, Width::W16);
        let all_ones = p.constant(0xFFFF, Width::W16);
        let eq = p.eq(wide, all_ones);
        let r = check(&mut p, &[eq]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(p.as_var(x).unwrap()), Some(0xFF));
    }

    #[test]
    fn ite_boolean_expansion() {
        let mut p = TermPool::new();
        let c = p.fresh("c", Width::BOOL);
        let x = p.fresh("x", Width::W8);
        let c1 = p.constant(1, Width::W8);
        let c2 = p.constant(2, Width::W8);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let ite = p.ite(c, e1, e2);
        let ctrue = c;
        let r = check(&mut p, &[ite, ctrue]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(p.as_var(x).unwrap()), Some(1));
    }

    #[test]
    fn unsat_carries_certificate_with_core() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let five = p.constant(5, Width::W8);
        let a = p.ult(x, five);
        let b = p.ult(five, x);
        let r = check(&mut p, &[a, b]);
        let cert = r.certificate().expect("unsat has a certificate");
        assert!(!cert.core.is_empty());
        let fps: Vec<u128> = [a, b].iter().map(|&t| p.term_fp(t)).collect();
        assert!(
            cert.core.iter().all(|fp| fps.contains(fp)),
            "core fingerprints come from the input assertions"
        );
        assert!(cert.steps > 0);
    }

    #[test]
    fn certificate_core_drops_unused_assertions() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W8);
        let five = p.constant(5, Width::W8);
        let a = p.ult(x, five);
        let b = p.ult(five, x);
        // y is never mentioned by the conflict; a deferred/no-op assertion
        // about it must not enter the core.
        let parity = p.register_fun("parity", Width::W8, |args| args[0] % 2);
        let papp = p.apply(parity, vec![y]);
        let zero = p.constant(0, Width::W8);
        let unrelated = p.eq(papp, zero);
        let r = check(&mut p, &[unrelated, a, b]);
        let cert = r.certificate().expect("unsat");
        let unrelated_fp = p.term_fp(unrelated);
        assert!(
            !cert.core.contains(&unrelated_fp),
            "unused opaque assertion must be dropped from the core"
        );
        assert_eq!(cert.core.len(), 2);
    }

    #[test]
    fn false_assertion_yields_false_core_certificate() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let ltx = p.ult(x, x); // folds to false at construction
        let c9 = p.constant(9, Width::W8);
        let other = p.ult(x, c9);
        let r = check(&mut p, &[other, ltx]);
        let cert = r.certificate().expect("unsat");
        assert_eq!(cert.core, vec![p.term_fp(ltx)]);
        assert!(matches!(cert.proof, ProofNode::FalseCore { core: 0 }));
    }
}
